import math
import sys
import threading
import time

import numpy as np
import pytest

import degcorr as dc
from degcorr import BalanceFailedError, PowerLawSpec, UnbalancedStubsError
from degcorr import config_model
from degcorr.config_model import RewireReport, erased_configuration_model, randomization_study
from degcorr.generators import _floor_cut, _pareto_transform, sample_integer_power_law


class TestErasedConfigurationModel:
    def test_forced_matching(self):
        g, rep = erased_configuration_model(np.array([[1, 0], [0, 1]]), 0)
        assert g.edges == [(0, 1)]
        assert rep.self_loops_removed == 0
        assert rep.multi_edges_collapsed == 0

    def test_single_node_self_loop_erased(self):
        g, rep = erased_configuration_model(np.array([[1, 1]]), 0)
        assert g.edge_count == 0
        assert rep.self_loops_removed == 1
        assert rep.edges_after == 0

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedStubsError):
            erased_configuration_model(np.array([[2, 0], [0, 1]]), 0)

    def test_unbalanced_by_wrapped_int64_sums_rejected(self):
        # sum(out) = 2**64 wraps to 0 == sum(in) in int64
        with pytest.raises(UnbalancedStubsError):
            erased_configuration_model(np.array([[2**62, 0]] * 4), 0)

    def test_stub_budget(self):
        with pytest.raises(ValueError, match="budget"):
            erased_configuration_model(np.array([[2**40, 2**40]]), 0)

    def test_float_degrees_refused(self):
        # truncated, these would draw a graph from the degrees [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="expected integers"):
            erased_configuration_model([[1.9, 0.5], [0.5, 1.9]], 1)

    def test_kept_edges_are_the_sorted_non_loop_stub_pairs(self):
        rng = np.random.default_rng(8)
        collapsed = 0
        for seed in range(10):
            out = rng.integers(0, 6, 30)
            inn = rng.permutation(out)
            g, rep = erased_configuration_model(np.column_stack([out, inn]), seed)
            # the documented matching: the shuffled in-stubs zipped against
            # the out-stubs in node order
            src = np.repeat(np.arange(30), out).tolist()
            tgt = np.random.default_rng(seed).permutation(np.repeat(np.arange(30), inn)).tolist()
            loops = sum(s == t for s, t in zip(src, tgt))
            kept = sorted({(s, t) for s, t in zip(src, tgt) if s != t})
            assert g.node_count == 30
            assert g.edges == kept
            assert rep == RewireReport(len(src), loops, len(src) - loops - len(kept), len(kept))
            collapsed += rep.multi_edges_collapsed
        assert collapsed > 0

    def test_output_is_simple(self):
        rng = np.random.default_rng(5)
        for seed in range(25):
            out = rng.integers(0, 5, 40)
            inn = rng.permutation(out)  # balanced by construction
            g, rep = erased_configuration_model(np.column_stack([out, inn]), seed)
            assert g.self_loop_count() == 0
            assert g.duplicate_edge_count() == 0
            assert rep.edges_before - rep.self_loops_removed - rep.multi_edges_collapsed == g.edge_count

    def test_degree_domination(self):
        rng = np.random.default_rng(6)
        out = rng.integers(0, 6, 50)
        inn = rng.permutation(out)
        g, rep = erased_configuration_model(np.column_stack([out, inn]), 3)
        d = dc.degrees(g)
        assert np.all(d.out_degree <= out)
        assert np.all(d.in_degree <= inn)
        if rep.self_loops_removed == 0 and rep.multi_edges_collapsed == 0:
            assert np.array_equal(d.out_degree, out)
            assert np.array_equal(d.in_degree, inn)

    def test_matching_uniformity_on_tiny_instance(self):
        # degrees [(1,0),(1,0),(0,1),(0,1)]: exactly two perfect matchings
        pairs = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        hits = 0
        trials = 10_000
        for seed in range(trials):
            g, _ = erased_configuration_model(pairs, seed)
            if g.edges == [(0, 2), (1, 3)]:
                hits += 1
            else:
                assert g.edges == [(0, 3), (1, 2)]
        freq = hits / trials
        assert abs(freq - 0.5) < 3 * 0.005

    def test_determinism(self):
        pairs = np.array([[2, 1], [1, 2], [1, 1]])
        a, _ = erased_configuration_model(pairs, 42)
        b, _ = erased_configuration_model(pairs, 42)
        assert a == b

    def test_marginals_close_to_prescription(self):
        # rewiring the bridge graph keeps the degree marginals within 2% TV
        g0 = dc.bridge_graph(dc.BridgeParams(100, 100))
        d0 = dc.degrees(g0)
        pairs = np.column_stack([d0.out_degree, d0.in_degree])
        reps = 20
        tv_out = tv_in = 0.0
        want_out = np.bincount(d0.out_degree, minlength=300) / g0.node_count
        want_in = np.bincount(d0.in_degree, minlength=300) / g0.node_count
        got_out = np.zeros(300)
        got_in = np.zeros(300)
        for seed in range(reps):
            g, _ = erased_configuration_model(pairs, seed)
            d = dc.degrees(g)
            got_out += np.bincount(d.out_degree, minlength=300)[:300]
            got_in += np.bincount(d.in_degree, minlength=300)[:300]
        got_out /= reps * g0.node_count
        got_in /= reps * g0.node_count
        tv_out = 0.5 * np.abs(got_out - want_out).sum()
        tv_in = 0.5 * np.abs(got_in - want_in).sum()
        assert tv_out < 0.02 and tv_in < 0.02


class TestBalanceIidSequence:
    def test_float_pairs_refused(self):
        spec = PowerLawSpec(2.0, 1)
        with pytest.raises(ValueError, match="expected integers"):
            dc.balance_iid_sequence(np.array([[2.5, 1.0], [1.0, 2.5]]), spec, spec, 0)

    def test_already_balanced_untouched(self):
        pairs = np.array([[2, 1], [1, 2]])
        spec = PowerLawSpec(2.0, 1)
        got, attempts = dc.balance_iid_sequence(pairs, spec, spec, 0)
        assert attempts == 0
        assert np.array_equal(got, pairs)

    def test_wrapped_int64_sums_are_not_balanced(self):
        # sum(out) = 2**64 wraps to 0 == sum(in); draws pinned at 1 balance
        spec = PowerLawSpec(1e9, 1)
        got, attempts = dc.balance_iid_sequence(np.array([[2**62, 0]] * 4), spec, spec, 0)
        assert attempts == 1
        assert got.tolist() == [[1, 1]] * 4

    # the _stub_block tests run one worker: the stub feeds the blocks from one
    # shared iterator, so their outcome depends on the order of the calls
    @staticmethod
    def _stub_block(monkeypatch, out_rows, in_rows):
        # the balancer sums one block of out-degree rows, then one of
        # in-degrees; the stub puts the degrees in place of the uniforms and
        # sums them as int64, modulo 2**64, and mapping a row to degrees keeps them
        blocks = iter([np.array(out_rows, dtype=np.float64), np.array(in_rows, dtype=np.float64)])

        def row_sums(spec, block, tail):
            block[...] = next(blocks)
            return block.astype(np.int64).sum(axis=1)

        monkeypatch.setattr(config_model, "_floor_row_sums", row_sums)
        monkeypatch.setattr(config_model, "_pareto_transform", lambda spec, buf: buf)

    def _balance_stubbed(self, monkeypatch, out_row, in_row):
        # attempt 1 draws the given rows, attempt 2 a balanced row of ones
        n = len(out_row)
        self._stub_block(monkeypatch, [out_row, [1] * n], [in_row, [1] * n])
        spec = PowerLawSpec(2.0, 1)
        return dc.balance_iid_sequence(
            np.array([[1, 0]] * n), spec, spec, 0, max_attempts=2, _workers=1
        )

    def test_wrapped_row_sums_are_not_a_hit(self, monkeypatch):
        # attempt 1's float64 sums would both round to 2**53, but it is not balanced
        got, attempts = self._balance_stubbed(monkeypatch, [2**53, 1], [2**53, 0])
        assert attempts == 2
        assert got.tolist() == [[1, 1]] * 2

    def test_wrapped_int64_row_sums_are_not_a_hit(self, monkeypatch):
        # attempt 1's int64 sums agree (2**64 wraps to 0), but it is not balanced
        got, attempts = self._balance_stubbed(monkeypatch, [2**62] * 4, [0] * 4)
        assert attempts == 2
        assert got.tolist() == [[1, 1]] * 4

    def test_balanced_row_past_float_precision_is_found(self, monkeypatch):
        # both exact sums are 2**53 + 2, but float64 sums would differ
        out_row, in_row = [2**53, 1, 1], [2**53, 2, 0]
        assert np.sum(np.array(out_row, dtype=np.float64)) != np.sum(np.array(in_row, dtype=np.float64))
        self._stub_block(monkeypatch, [out_row, [1] * 3], [in_row, [2] * 3])
        spec = PowerLawSpec(2.0, 1)
        got, attempts = dc.balance_iid_sequence(
            np.array([[1, 0]] * 3), spec, spec, 0, max_attempts=2, _workers=1
        )
        assert attempts == 1
        assert got.tolist() == [list(p) for p in zip(out_row, in_row)]

    def test_deterministic_mismatch_fails(self):
        # x_min 2 vs 1 with a huge exponent pins draws at their minima
        out_spec = PowerLawSpec(1e9, 2)
        in_spec = PowerLawSpec(1e9, 1)
        pairs = np.array([[2, 1]])
        with pytest.raises(BalanceFailedError):
            dc.balance_iid_sequence(pairs, out_spec, in_spec, 0, max_attempts=50)

    def test_heavy_tail_balances_within_budget(self):
        spec = PowerLawSpec(2.5, 1)
        pairs = dc.iid_degree_sequence(10_000, spec, spec, 5)
        balanced, attempts = dc.balance_iid_sequence(pairs, spec, spec, 6, max_attempts=100_000)
        assert int(balanced[:, 0].sum()) == int(balanced[:, 1].sum())
        assert 0 < attempts <= 100_000

    def test_resample_determinism(self):
        spec = PowerLawSpec(2.5, 1)
        pairs = dc.iid_degree_sequence(300, spec, spec, 5)
        a, na = dc.balance_iid_sequence(pairs, spec, spec, 9)
        b, nb = dc.balance_iid_sequence(pairs, spec, spec, 9)
        assert na == nb and np.array_equal(a, b)


CUT_GAMMAS = [0.3, 1.0, 1.5, 2.5, 7.0, 1e9, math.inf]
CUT_XMINS = [1, 2, 3, 1000, 2**40]
CUT_SPECS = [PowerLawSpec(g, x) for g in CUT_GAMMAS for x in CUT_XMINS]


def _adversarial_uniforms(spec):
    """0, the extremes, and the uniforms up to six steps either side of the
    cut and of the first level boundaries 1 - (x_min / (x_min + j))**gamma,
    where floor(X) moves from x_min + j - 1 to x_min + j."""
    x, g = spec.x_min, spec.gamma
    edges = [_floor_cut(spec), *(-math.expm1(g * math.log(x / (x + j))) for j in range(1, 5))]
    us = [0.0, 2.0**-53, 2.0**-52, 0.5, 1 - 2.0**-53]
    for edge in edges:
        down = up = edge
        for _ in range(6):
            down, up = np.nextafter(down, -1.0), np.nextafter(up, 2.0)
            us += [down, up]
        us.append(edge)
    us = np.asarray(us)
    return us[(us >= 0) & (us < 1)]


def _full_sums(spec, block):
    """Exact row sums of every uniform mapped."""
    return [sum(int(v) for v in row) for row in _pareto_transform(spec, block.copy())]


def _floor_row_sums(spec, block):
    # scratch as the balancer allocates it, filled with junk
    return config_model._floor_row_sums(spec, block, np.full(block.size, 7.0))


def _check_row_sums(spec, block):
    kept = block.copy()
    got = _floor_row_sums(spec, block)
    assert np.array_equal(block, kept)
    assert got.dtype == np.int64
    # the exact sums modulo 2**64, as int64
    assert got.tolist() == [(want + 2**63) % 2**64 - 2**63 for want in _full_sums(spec, block)]


class TestFloorRowSums:
    """_floor_row_sums maps only the uniforms at or above _floor_cut; its sums
    must be those of mapping every uniform."""

    @pytest.mark.parametrize("spec", CUT_SPECS, ids=str)
    def test_below_the_cut_maps_to_x_min(self, spec):
        cut = _floor_cut(spec)
        us = _adversarial_uniforms(spec)
        rng = np.random.default_rng(0)
        below = np.concatenate([us[us < cut], rng.random(10_000) * cut, rng.random(1000) * 2.0**-40])
        below = below[below < cut]
        assert np.all(_pareto_transform(spec, below.copy()) == spec.x_min)
        # at or above the cut a uniform may map to x_min or above, never below
        assert np.all(_pareto_transform(spec, us[us >= cut].copy()) >= min(spec.x_min, 2**62))

    @pytest.mark.parametrize("gamma", CUT_GAMMAS)
    def test_cut_is_zero_for_huge_x_min(self, gamma):
        # every draw is mapped
        assert _floor_cut(PowerLawSpec(gamma, 2**40)) == 0.0
        assert 0.0 < _floor_cut(PowerLawSpec(gamma, 1000)) <= 1.0

    @pytest.mark.parametrize("spec", CUT_SPECS, ids=str)
    def test_adversarial_rows_match_full_transform(self, spec):
        us = _adversarial_uniforms(spec)
        rng = np.random.default_rng(1)
        row = rng.permutation(np.concatenate([us, rng.random(3000)]))
        _check_row_sums(spec, row.reshape(1, -1))
        # the same uniforms as short rows of a 2-D block, by each path
        for n in (1, 7, 63, 64, 300):
            rows = row[: row.size // n * n].reshape(-1, n)
            _check_row_sums(spec, rows)

    def test_float_sum_of_2_53_is_summed_again(self, monkeypatch):
        # 2^53 + 1 rounds to even in float64, so a float row sum of exactly
        # 2^53 may stand for 2^53 + 1: only a sum below 2^53 is exact
        spec = PowerLawSpec(2.5, 1)
        block = np.array([[0.98, 0.99]])
        assert block.min() >= _floor_cut(spec)
        monkeypatch.setattr(config_model, "_pareto_transform", lambda spec, u: np.where(u < 0.985, 2.0**53, 1.0))
        assert _floor_row_sums(spec, block).tolist() == [2**53 + 1]

    @pytest.mark.parametrize("shape", [(65, 1000), (2, 30000), (218, 300), (1040, 63), (1024, 64), (9362, 7), (65536, 1)])
    @pytest.mark.parametrize("gamma", [1.5, 2.5, 7.0])
    def test_blocks_of_rows(self, shape, gamma):
        spec = PowerLawSpec(gamma, 1)
        block = np.random.default_rng(2).random(shape)
        # rows with no mapped draw first, in between and last
        for r in (0, shape[0] // 2, shape[0] - 1):
            block[r] = 0.0
        _check_row_sums(spec, block)

    @pytest.mark.parametrize("n", [1, 2, 2**16 - 1, 2**16 + 1, 100_000])
    @pytest.mark.parametrize("gamma", [0.3, 1.5, 2.5])
    def test_single_rows(self, n, gamma):
        spec = PowerLawSpec(gamma, 1)
        block = np.random.default_rng(3).random((1, n))
        _check_row_sums(spec, block)
        _check_row_sums(spec, np.zeros((1, n)))  # no mapped draw

    @pytest.mark.parametrize("shape", [(1, 5), (4, 300), (1, 2**16 + 2)])
    @pytest.mark.parametrize("past", ["all", "last"])
    def test_rows_past_2_53(self, shape, past):
        # gamma 0.3 maps uniforms near 1 to ~2**62: a few such draws pass
        # 2**53, and four wrap an int64 sum; the rows below 2**53 of the same
        # block must still sum exactly
        spec = PowerLawSpec(0.3, 1)
        block = np.random.default_rng(4).random(shape) * 0.5
        big = slice(None) if past == "all" else slice(-1, None)
        block[big, :3] = 1 - 2.0**-53
        block[-1, 1:5] = 1 - 2.0**-53
        sums = _full_sums(spec, block)
        assert min(sums[big]) >= 2**53 and max(sums) >= 2**64
        assert past == "all" or shape[0] == 1 or max(sums[:-1]) < 2**53
        _check_row_sums(spec, block)

    @pytest.mark.parametrize("spec", [PowerLawSpec(g, 1) for g in (0.3, 1.5, 2.5)] + [PowerLawSpec(1.5, 2**40)], ids=str)
    def test_gathered_transform_matches_full_row(self, spec):
        # every uniform must map the same wherever it sits in the array, so
        # that a gathered draw equals the same draw mapped in its full row;
        # lengths 1 to 257 and shifts 0 to 8 put it in every SIMD lane and
        # in the remainder
        rng = np.random.default_rng(5)
        us = np.concatenate([_adversarial_uniforms(spec), rng.random(300)])
        for length in range(1, 258):
            row = rng.choice(us, length)
            full = _pareto_transform(spec, row.copy())
            idx = np.flatnonzero(row >= _floor_cut(spec))
            assert np.array_equal(_pareto_transform(spec, row.take(idx)), full[idx])
            for shift in range(1, min(9, length)):
                assert np.array_equal(_pareto_transform(spec, row[shift:].copy()), full[shift:])


def _naive_balance(pairs, spec_out, spec_in, seed, max_attempts):
    """One attempt per pair of draws on the balancer's two streams, summed as Python ints."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if sum(pairs[:, 0].tolist()) == sum(pairs[:, 1].tolist()):
        return pairs, 0
    n = pairs.shape[0]
    out_rng, in_rng = (np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(2))
    for attempt in range(1, max_attempts + 1):
        out = sample_integer_power_law(spec_out, out_rng, n)
        inn = sample_integer_power_law(spec_in, in_rng, n)
        if sum(out.tolist()) == sum(inn.tolist()):
            return np.column_stack([out, inn]), attempt
    raise BalanceFailedError(max_attempts)


WORKERS = (1, 2)


def _iid_cm_balance_attempts(n: int, seed: int) -> int:
    # the balancing step of acceptance 8's iid-cm family (gamma 1.5), on one
    # worker and on two, which must agree
    spec = PowerLawSpec(1.5, 1)
    seq_ss, bal_ss, _ = np.random.SeedSequence(seed).spawn(3)
    pairs = dc.iid_degree_sequence(n, spec, spec, int(seq_ss.generate_state(1)[0]))
    (balanced, attempts), (balanced_2, attempts_2) = (
        dc.balance_iid_sequence(
            pairs, spec, spec, int(bal_ss.generate_state(1)[0]), max_attempts=200_000, _workers=w
        )
        for w in WORKERS
    )
    assert attempts == attempts_2 and np.array_equal(balanced, balanced_2)
    assert sum(balanced[:, 0].tolist()) == sum(balanced[:, 1].tolist())
    return attempts


class TestBalanceStreams:
    def test_acceptance_family_attempts_pinned(self):
        got = [_iid_cm_balance_attempts(1000, seed) for seed in range(10)]
        assert got == [248, 440, 215, 1452, 360, 2589, 251, 279, 972, 645]

    def test_acceptance_family_large_attempts_pinned(self):
        assert _iid_cm_balance_attempts(30_000, 1) == 843

    # (n, gamma, seed, budgets): hits on attempts 2, 5, 266, 220 and 89; the
    # budgets end just before, on and after each hit, and most are not a
    # multiple of the attempts drawn per block. At n=300 a block is 218
    # rows, so both n=300 hits fall in block 1, the second worker's, and
    # budgets 264 to 266, 219 and 220 cut that block short; a block that
    # is not cut would report the hit on attempt 266 within a budget of 264
    @pytest.mark.parametrize(
        "n, gamma, seed, budgets",
        [
            (1, 1.5, 0, [1, 2, 3]),
            (7, 1.5, 3, [4, 5, 9999]),
            (300, 1.5, 0, [264, 265, 266, 500]),
            (300, 2.5, 3, [219, 220, 437]),
            (2**16 + 1, 2.5, 1, [88, 89]),
        ],
    )
    def test_matches_per_attempt_loop(self, n, gamma, seed, budgets):
        spec = PowerLawSpec(gamma, 1)
        pairs = dc.iid_degree_sequence(n, spec, spec, seed)
        want, hit = _naive_balance(pairs, spec, spec, seed, max(budgets))
        for budget in budgets:
            for workers in WORKERS:
                if hit <= budget:
                    got, attempts = dc.balance_iid_sequence(
                        pairs, spec, spec, seed, budget, _workers=workers
                    )
                    assert attempts == hit
                    assert np.array_equal(got, want)
                else:
                    with pytest.raises(BalanceFailedError) as exc:
                        dc.balance_iid_sequence(pairs, spec, spec, seed, budget, _workers=workers)
                    assert exc.value.attempts == budget

    @pytest.mark.parametrize("n, budget", [(1, 3), (7, 10_000), (300, 500)])
    def test_exhausted_budget_matches_per_attempt_loop(self, n, budget):
        out_spec, in_spec = PowerLawSpec(1e9, 2), PowerLawSpec(1e9, 1)
        pairs = np.array([[2, 1]] * n)
        with pytest.raises(BalanceFailedError) as want:
            _naive_balance(pairs, out_spec, in_spec, 4, budget)
        for workers in WORKERS:
            with pytest.raises(BalanceFailedError) as got:
                dc.balance_iid_sequence(pairs, out_spec, in_spec, 4, budget, _workers=workers)
            assert got.value.attempts == want.value.attempts == budget

    @pytest.mark.parametrize("k", [0, 1, 1000, 65 * 1000, 2**16 + 1, 4097])
    def test_advance_skips_doubles(self, k):
        # a worker reaches its first attempt with PCG64.advance: one 64-bit
        # output per float64 drawn by Generator.random
        ss = np.random.SeedSequence(11)
        drawn = np.random.Generator(np.random.PCG64(ss))
        drawn.random(k)
        bits = np.random.PCG64(ss)
        bits.advance(k)
        assert np.array_equal(np.random.Generator(bits).random(16), drawn.random(16))

    @pytest.mark.parametrize(
        "fail_on_main, exc", [(False, MemoryError("fill")), (True, KeyboardInterrupt("fill"))]
    )
    def test_worker_failure_raised_in_caller(self, monkeypatch, fail_on_main, exc):
        # every row sum on one side of the main thread raises; the draws never
        # balance, so the other worker would run ~5,300 blocks if not stopped
        row_sums = config_model._floor_row_sums
        other_sums = []

        def failing(spec, block, tail):
            if (threading.current_thread() is threading.main_thread()) == fail_on_main:
                raise exc
            other_sums.append(1)
            return row_sums(spec, block, tail)

        monkeypatch.setattr(config_model, "_floor_row_sums", failing)
        out_spec, in_spec = PowerLawSpec(1e9, 2), PowerLawSpec(1e9, 1)
        pairs = np.array([[2, 1]] * 7)
        threads = threading.active_count()
        with pytest.raises(type(exc), match="fill"):
            dc.balance_iid_sequence(pairs, out_spec, in_spec, 4, 10**8, _workers=2)
        assert threading.active_count() == threads
        assert len(other_sums) < 1000

    def test_lowest_hit_wins_when_the_second_worker_hits_first(self, monkeypatch):
        # at n=1000 the streams of seed 24 balance on attempts 678 (block 10,
        # first worker) and 721 (block 11, second worker); slowed row sums on
        # the main thread let the second worker confirm its hit first
        row_sums = config_model._floor_row_sums

        def slow_on_main(spec, block, tail):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.02)
            return row_sums(spec, block, tail)

        monkeypatch.setattr(config_model, "_floor_row_sums", slow_on_main)
        spec = PowerLawSpec(1.5, 1)
        pairs = np.array([[1, 0]] * 1000)
        want, hit = _naive_balance(pairs, spec, spec, 24, 800)
        assert hit == 678
        got, attempts = dc.balance_iid_sequence(pairs, spec, spec, 24, 800, _workers=2)
        assert attempts == hit and np.array_equal(got, want)

    def test_more_workers_than_cores_under_fast_switching(self):
        # workers read each other's hits between blocks; a lost or misordered
        # hit would change the pair or the count
        spec = PowerLawSpec(1.5, 1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(4):
                pairs = dc.iid_degree_sequence(1000, spec, spec, seed)
                want = _naive_balance(pairs, spec, spec, seed, 5000)
                got = dc.balance_iid_sequence(pairs, spec, spec, seed, 5000, _workers=4)
                assert got[1] == want[1] and np.array_equal(got[0], want[0])
        finally:
            sys.setswitchinterval(switch)


class TestRandomizationStudy:
    def test_smallest_legal_run(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        summary = randomization_study(g, 2, 0)
        assert summary.repetitions == 2
        for t in dc.ALL_TYPES:
            for m in ("pearson", "spearman_uniform", "spearman_average", "kendall"):
                cell = summary.cell(t.wire_name, m)
                assert cell.repetitions == 2
                assert 0 <= cell.defined <= 2
                if cell.defined >= 2:
                    assert cell.sigma is not None and cell.sigma >= 0

    def test_bitwise_determinism(self):
        g = dc.bridge_graph(dc.BridgeParams(4, 4))
        a = randomization_study(g, 3, 123)
        b = randomization_study(g, 3, 123)
        assert a == b

    def test_requires_two_reps(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        with pytest.raises(ValueError):
            randomization_study(g, 1, 0)

    @pytest.mark.parametrize("rho_inner", [0, -2])
    def test_requires_one_rho_rep(self, rho_inner):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        with pytest.raises(ValueError, match="rho_inner"):
            randomization_study(g, 2, 0, rho_inner=rho_inner)

    def test_null_model_self_consistency(self):
        # measuring a previous ECM draw against its own null should be small
        spec = PowerLawSpec(2.5, 1)
        pairs = dc.iid_degree_sequence(2000, spec, spec, 5)
        pairs, _ = dc.balance_iid_sequence(pairs, spec, spec, 6)
        g, _ = erased_configuration_model(pairs, 7)
        summary = randomization_study(g, 10, 8)
        for cell in summary.cells.values():
            if cell.mean is not None:
                assert abs(cell.mean) < 0.1

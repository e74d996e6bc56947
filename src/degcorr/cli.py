"""Batch command line: compute reports, generate graphs, randomize, study.

Every command is a pure function of (input bytes, flags, seed); repeated
runs produce byte-identical output. Exit codes: 0 success, 2 input error,
3 internal error (any other exception; a one-line message, no traceback).
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import sys
import warnings

import numpy as np

from . import measures
from . import report as report_mod
from . import theory
from .config_model import balance_iid_sequence, erased_configuration_model, randomization_study
from .errors import DegcorrError, EdgeListFormatError
from .generators import (
    BridgeParams,
    PowerLawSpec,
    bridge_graph,
    disconnected_bridge_graph,
    iid_degree_sequence,
    random_bridge_collection,
)
from .graph import DependencyType, load_edge_list, write_edge_list
from .report import _fmt

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _csv_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _seed(value: str) -> int:
    if int(value) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return int(value)


def _kinds(parser: argparse.ArgumentParser, dest: str, *names: str) -> list[argparse.ArgumentParser]:
    """One subparser per family or study, which refuses the flags it does not read, also as
    abbreviations of its own (--n of one study for --n-grid of another). Its errors name the
    command, as those of compute and randomize do."""
    kinds = parser.add_subparsers(dest=dest, required=True)
    return [
        kinds.add_parser(name, prog=parser.prog, usage=f"%(prog)s {name} [options]", allow_abbrev=False)
        for name in names
    ]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="degcorr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="degree-degree correlation report for an edge list")
    c.add_argument("--input", required=True)
    c.add_argument("--measures", default=",".join(report_mod.MEASURE_ORDER))
    c.add_argument("--types", default=",".join(report_mod.TYPE_ORDER))
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--rho-reps", type=int, default=3)
    c.add_argument("--format", choices=("json", "csv"), default="json")

    g = sub.add_parser("generate", help="write a synthetic graph as an edge list")
    bridge, disconnected, collection, iid = families = _kinds(
        g, "family", "bridge", "bridge-disconnected", "bridge-collection", "iid-cm"
    )
    for p in (bridge, disconnected):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
    for p in (collection, iid):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--xmin", type=int, default=1)
        p.add_argument("--seed", type=_seed, default=0)
    collection.add_argument("--a", type=float, default=1.0)
    collection.add_argument("--gamma", type=float, default=1.5)
    iid.add_argument("--gamma-out", type=float, default=2.5)
    iid.add_argument("--gamma-in", type=float, default=2.5)
    iid.add_argument("--max-attempts", type=int, default=100_000)
    for p in families:
        p.add_argument("--out", required=True)

    r = sub.add_parser("randomize", help="report with erased-configuration-model baseline")
    r.add_argument("--input", required=True)
    r.add_argument("--reps", type=int, default=20)
    r.add_argument("--rho-reps", type=int, default=3)
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub.add_parser("study", help="scaling and bridge convergence studies (CSV)")
    scaling, convergence, distribution = _kinds(s, "study", "scaling", "bridge-convergence", "bridge-distribution")
    for p in (scaling, convergence):
        p.add_argument("--n-grid", default="1000,10000,100000")
    for p in (scaling, distribution):
        p.add_argument("--gamma", type=float, default=1.5)
        p.add_argument("--xmin", type=int, default=1)
        p.add_argument("--seed", type=_seed, default=0)
    for p in (convergence, distribution):
        p.add_argument("--a", type=float, default=1.0)
    scaling.add_argument("--pq", default="2,0")
    scaling.add_argument("--gamma-out", type=float)
    scaling.add_argument("--gamma-in", type=float)
    scaling.add_argument("--reps", type=int, default=20)
    distribution.add_argument("--n", type=int, default=2000)
    distribution.add_argument("--reals", type=int, default=100)
    return ap


def cmd_compute(args) -> int:
    loaded = load_edge_list(args.input)
    rep = report_mod.compute_report(
        loaded.graph,
        path=args.input,
        seed=args.seed,
        rho_repetitions=args.rho_reps,
        types=tuple(_csv_list(args.types)),
        which=tuple(_csv_list(args.measures)),
    )
    _emit(rep, args.format)
    return EXIT_OK


def cmd_randomize(args) -> int:
    loaded = load_edge_list(args.input)
    # distinct stream family so baseline draws never reuse the report's seeds;
    # the study runs first so that it checks --reps before the report is built
    study_seed = int(np.random.SeedSequence((args.seed, 1)).generate_state(1)[0])
    summary = randomization_study(loaded.graph, args.reps, study_seed, rho_inner=args.rho_reps)
    rep = report_mod.compute_report(
        loaded.graph, path=args.input, seed=args.seed, rho_repetitions=args.rho_reps
    )
    rep = dataclasses.replace(rep, baseline=summary)
    _emit(rep, args.format)
    return EXIT_OK


def _emit(rep, fmt: str) -> None:
    text = report_mod.to_json(rep) if fmt == "json" else report_mod.to_csv(rep)
    sys.stdout.write(text)


def cmd_generate(args) -> int:
    if args.family in ("bridge", "bridge-disconnected"):
        params = BridgeParams(args.k, args.m)
        g = bridge_graph(params) if args.family == "bridge" else disconnected_bridge_graph(params)
    elif args.family == "bridge-collection":
        g = random_bridge_collection(args.n, args.a, PowerLawSpec(args.gamma, args.xmin), args.seed)
    else:  # iid-cm
        spec_out = PowerLawSpec(args.gamma_out, args.xmin)
        spec_in = PowerLawSpec(args.gamma_in, args.xmin)
        seq_seed, bal_seed, ecm_seed = (
            int(s.generate_state(1)[0]) for s in np.random.SeedSequence(args.seed).spawn(3)
        )
        pairs = iid_degree_sequence(args.n, spec_out, spec_in, seq_seed)
        pairs, _ = balance_iid_sequence(pairs, spec_out, spec_in, bal_seed, args.max_attempts)
        g, _ = erased_configuration_model(pairs, ecm_seed)
    write_edge_list(g, args.out)
    return EXIT_OK


def cmd_study(args) -> int:
    out = io.StringIO()  # copied to stdout only when the whole study succeeds
    if args.study == "scaling":
        gam_out = args.gamma_out if args.gamma_out is not None else args.gamma
        gam_in = args.gamma_in if args.gamma_in is not None else args.gamma
        spec_out = PowerLawSpec(gam_out, args.xmin)
        spec_in = PowerLawSpec(gam_in, args.xmin)
        sizes = [int(v) for v in _csv_list(args.n_grid)]
        pq_vals = [float(v) for v in _csv_list(args.pq)]
        if len(pq_vals) % 2:
            raise DegcorrError("--pq expects pairs like 2,0 or 2,0,1,1")
        pq_pairs = [(pq_vals[i], pq_vals[i + 1]) for i in range(0, len(pq_vals), 2)]
        rows = theory.scaling_study(spec_out, spec_in, sizes, pq_pairs, args.reps, args.seed)
        out.write("n,p,q,sum,predicted_exponent,fitted_slope\n")
        for row in rows:
            for n, med in row.points:
                out.write(
                    f"{n},{_fmt(row.p)},{_fmt(row.q)},{_fmt(med)},{_fmt(row.predicted)},{_fmt(row.slope)}\n"
                )
    elif args.study == "bridge-convergence":
        sizes = [int(v) for v in _csv_list(args.n_grid)]
        if not args.a.is_integer():
            raise DegcorrError(f"bridge-convergence needs an integer --a, got {args.a}")
        a = int(args.a)
        out.write("family,n,measure,value,closed_form_value\n")
        for n in sizes:
            params = BridgeParams(n, a * n)
            families = [
                ("bridge", bridge_graph(params), {
                    "pearson": theory.closed_form_pearson_bridge(n, a),
                    "spearman_average": theory.closed_form_spearman_bridge(n, a),
                    "kendall": theory.closed_form_tau_bridge(n, a),
                }),
                ("bridge_disconnected", disconnected_bridge_graph(params), {
                    "pearson": theory.closed_form_pearson_bridge_disconnected(n, a),
                    "spearman_average": theory.closed_form_spearman_bridge(n, a, "disconnected"),
                }),
            ]
            for fam, g, closed in families:
                [row] = measures.row_values(g, [DependencyType.IN_OUT], tuple(closed), [], 1)
                for (mname, cf), (val, _) in zip(closed.items(), row):
                    out.write(f"{fam},{n},{mname},{_fmt(val)},{_fmt(cf)}\n")
    else:  # bridge-distribution
        values = theory.bridge_distribution_study(
            args.n, args.a, PowerLawSpec(args.gamma, args.xmin), args.reals, args.seed
        )
        out.write("realization,pearson\n")
        for i, value in enumerate(values):
            out.write(f"{i},{_fmt(value)}\n")
    sys.stdout.write(out.getvalue())
    return EXIT_OK


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        # library warnings become one "warning:" line each; the filters and
        # the hook are restored on return
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            if args.command == "compute":
                return cmd_compute(args)
            if args.command == "generate":
                return cmd_generate(args)
            if args.command == "randomize":
                return cmd_randomize(args)
            return cmd_study(args)
    except (OSError, EdgeListFormatError, DegcorrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, not bad input: a message, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

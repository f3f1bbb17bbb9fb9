"""Command-line interface.

Machine-readable results go to the files named by ``--out``/``--json``;
progress and diagnostics go to stderr.  Exit codes: 0 success, 1 internal
or verification failure, 2 usage error.  Given the same arguments and seed,
every command writes byte-identical output files, independent of
``--threads``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shlex
import sys
from fractions import Fraction

from .code import build_layout, build_se_circuit, layout_to_dict
from .experiments import (
    SimConfig,
    check_threshold_grid,
    estimate_lifetime,
    estimate_rate,
    fit_scaling,
    threshold_scan,
)
from .graph import build_decoder_graphs, graph_to_dict
from .irmwpm import STOPPING_MODES
from .noise import enumerate_single_faults
from .verify import run_verification

RESULT_SCHEMA = "surfdec-results-v1"


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write_csv(path: str, rows: list[dict]) -> None:
    """Rows of one ``to_row()`` kind, the first row's keys as the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_outputs(args) -> None:
    """Reject an output path that cannot be written, before any work runs."""
    for flag in ("out", "json", "csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ValueError(f"cannot write --{flag} {path}")


def _bool_flag(value: str) -> bool:
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {value!r}")


def _with_config_flags(argv: list[str]) -> list[str]:
    """Splice a ``--config FILE``'s settings into ``argv`` as flags.

    Each ``key = value`` line becomes ``--key`` followed by the value split
    as shell words, placed right after the subcommand.  Argparse then checks
    the file's settings as it checks flags, and a flag given on the command
    line overrides the file's, since the last occurrence wins.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key):
            raise ValueError(f"{path}:{lineno}: expected key = value")
        if key == "config":
            raise ValueError(f"{path}:{lineno}: config files do not nest")
        try:
            flags += ["--" + key.replace("_", "-"), *shlex.split(value)]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return argv[:1] + flags + argv[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfdec",
        description="Surface-code decoding laboratory (MWPM / IRMWPM).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, help, trials):
        """A Monte Carlo subcommand; a flag that sets a SimConfig field stores
        to the field's name, which is how ``_sim_config`` finds it."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="key = value lines; flags override them")
        sp.add_argument("--trials", type=int, default=trials)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--decoder", choices=("mwpm", "irmwpm"), default="irmwpm")
        sp.add_argument("--max-iters", dest="max_iterations", type=int, default=10)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument(
            "--idle-noise", type=_bool_flag, default=True,
            help="once-per-round data memory fault (on/off, default on)",
        )
        sp.add_argument(
            "--prune", dest="prune_neighbors", type=int, default=None, metavar="M",
            help="match only each event's M nearest partners (default: exact)",
        )
        return sp

    simulate = add_run("simulate", "memory-trial logical error rate", 1000)
    lifetime = add_run("lifetime", "average logical-qubit lifetime", 100)
    for sp in (simulate, lifetime):
        sp.add_argument("--distance", dest="L", type=int, required=True)
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--rounds", dest="T", type=int, help="default: distance")
        sp.add_argument("--out", required=True, help="CSV output path")
    simulate.add_argument("--stopping", choices=STOPPING_MODES, default="consecutive")
    simulate.add_argument("--reweight-boundary", type=_bool_flag, default=True)
    simulate.add_argument("--json", help="optional JSON output path")
    lifetime.add_argument(
        "--check-period", type=int, default=None,
        help="rounds between checks, a multiple of --rounds (default: distance)",
    )
    lifetime.add_argument("--cap", dest="lifetime_cap", type=int, default=1_000_000)

    sp = add_run("threshold", "crossing-point scan over (p, L)", 2000)
    sp.add_argument("--distances", type=int, nargs="+", required=True)
    sp.add_argument("--p-grid", type=float, nargs="+", required=True)
    sp.add_argument("--out", required=True, help="JSON output path")
    sp.add_argument("--csv", help="optional per-point CSV path")

    sp = sub.add_parser("fit", help="scaling-law fit of rate data")
    sp.add_argument("--in", dest="input", required=True, help="CSV from simulate runs")
    sp.add_argument("--out", required=True, help="JSON output path")
    sp.add_argument(
        "--predict", nargs=2, type=float, action="append", default=[],
        metavar=("P", "L"), help="also report extrapolated rate at (p, L)",
    )

    sp = sub.add_parser("enumerate-faults", help="dump the fault->events table")
    sp.add_argument("--distance", type=int, required=True)
    sp.add_argument("--rounds", type=int, default=None, help="default: distance")
    sp.add_argument("--idle-noise", type=_bool_flag, default=True)
    sp.add_argument("--out", required=True, help="JSON output path")

    sp = sub.add_parser("dump-graph", help="dump one decoding lattice as JSON")
    sp.add_argument("--distance", type=int, required=True)
    sp.add_argument("--rounds", type=int, default=None, help="default: distance")
    sp.add_argument("--p", type=float, default=0.001)
    sp.add_argument("--lattice", choices=("X", "Z"), default="X")
    sp.add_argument("--idle-noise", type=_bool_flag, default=True)
    sp.add_argument("--out", required=True, help="JSON output path")

    sp = sub.add_parser("dump-layout", help="dump qubit layout and schedule")
    sp.add_argument("--distance", type=int, required=True)
    sp.add_argument("--out", required=True, help="JSON output path")

    sp = sub.add_parser("verify", help="conditional-probability and oracle checks")
    sp.add_argument("--distance", type=int, default=5)
    sp.add_argument("--rounds", type=int, default=3)
    sp.add_argument("--p", type=float, default=0.001)
    sp.add_argument("--instances", type=int, default=200)

    return parser


_SIM_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}


def _sim_config(args, **point) -> SimConfig:
    """The SimConfig that a run subcommand's flags, then ``point``, describe."""
    flags = {k: v for k, v in vars(args).items() if k in _SIM_FIELDS}
    return SimConfig(**flags, **point)


def _cmd_simulate(args) -> int:
    cfg = _sim_config(args)
    _progress(
        f"simulate: L={cfg.L} T={cfg.rounds} p={cfg.p} decoder={cfg.decoder} "
        f"trials={cfg.trials}"
    )
    est = estimate_rate(cfg)
    _write_csv(args.out, [est.to_row()])
    if args.json:
        _write_json(
            args.json,
            {
                "schema": RESULT_SCHEMA,
                "config": {
                    "distance": cfg.L,
                    "rounds": cfg.rounds,
                    "p": cfg.p,
                    "trials": cfg.trials,
                    "seed": cfg.seed,
                    "decoder": cfg.decoder,
                    "max_iterations": cfg.max_iterations,
                    "stopping": cfg.stopping,
                    "idle_noise": cfg.idle_noise,
                    "reweight_boundary": cfg.reweight_boundary,
                },
                "results": [est.to_row()],
                "iteration_histogram": {
                    str(k): v for k, v in sorted(est.iteration_histogram.items())
                },
            },
        )
    _progress(f"rate {est.rate:.3e}  [{est.ci_low:.3e}, {est.ci_high:.3e}]")
    return 0


def _cmd_lifetime(args) -> int:
    cfg = _sim_config(args)
    _progress(f"lifetime: L={cfg.L} p={cfg.p} trials={cfg.trials}")
    est = estimate_lifetime(cfg)
    _write_csv(args.out, [est.to_row()])
    _progress(f"mean lifetime {est.mean_rounds:.1f} rounds ({est.capped} capped)")
    return 0


def _cmd_threshold(args) -> int:
    # reject a grid the scan cannot use, or any of its points, before
    # simulating one; a repeated distance or rate is one point, simulated once
    check_threshold_grid(args.distances, args.p_grid)
    configs = [
        _sim_config(args, L=L, p=p)
        for L in dict.fromkeys(args.distances)
        for p in dict.fromkeys(args.p_grid)
    ]
    rates = {}
    rows = []
    for cfg in configs:
        _progress(f"threshold point: L={cfg.L} p={cfg.p} trials={args.trials}")
        est = estimate_rate(cfg)
        rates[(cfg.L, cfg.p)] = est
        rows.append(est.to_row())
    result = threshold_scan(rates, seed=args.seed)
    out = {
        "schema": RESULT_SCHEMA,
        "config": {
            "distances": args.distances,
            "p_grid": args.p_grid,
            "trials": args.trials,
            "seed": args.seed,
            "decoder": args.decoder,
            "max_iterations": args.max_iterations,
            "idle_noise": args.idle_noise,
            "prune_neighbors": args.prune_neighbors,
        },
        "points": rows,
        "threshold": result.to_dict(),
    }
    _write_json(args.out, out)
    if args.csv:
        _write_csv(args.csv, rows)
    if result.no_crossing:
        _progress("no crossing found in the scanned range")
    else:
        _progress(f"crossing at p = {result.crossing:.4f} +- {result.crossing_std:.4f}")
    return 0


def _cmd_fit(args) -> int:
    points = []
    try:
        with open(args.input, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                for column in ("p", "distance", "rate"):
                    try:
                        row[column] = float(row[column])
                    except (KeyError, TypeError, ValueError):
                        raise ValueError(
                            f"{args.input}:{reader.line_num}: column {column} "
                            f"holds {row.get(column)!r}, not a number"
                        ) from None
                points.append((row["p"], row["distance"], row["rate"]))
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc.strerror}") from None
    fit = fit_scaling(points)
    try:
        rates = [fit.predict(p, L) for p, L in args.predict]
    except ValueError as exc:
        raise ValueError(f"--predict {exc}") from None
    out = {
        "schema": RESULT_SCHEMA,
        "n_points": len(points),
        "fit": fit.to_dict(),
        "predictions": [
            {"p": p, "distance": int(L), "rate": rate}
            for (p, L), rate in zip(args.predict, rates)
        ],
    }
    _write_json(args.out, out)
    _progress(f"fit rms residual {fit.residual_rms:.4f} (log10)")
    return 0


def _cmd_enumerate(args) -> int:
    L = args.distance
    T = args.rounds if args.rounds is not None else L
    layout = build_layout(L)
    circuit = build_se_circuit(layout)
    table = enumerate_single_faults(circuit, T, args.idle_noise)
    _write_json(
        args.out,
        {
            "schema": RESULT_SCHEMA,
            "distance": L,
            "rounds": T,
            "idle_noise": args.idle_noise,
            "faults": [
                {
                    "fault": fault.describe(circuit),
                    "round": fault.round,
                    "kind": fault.kind,
                    "index": fault.index,
                    "payload": fault.payload,
                    "coefficient": str(Fraction(units, 15)),
                    "x_lattice_events": [list(e) for e in x_events],
                    "z_lattice_events": [list(e) for e in z_events],
                }
                for fault, units, x_events, z_events in zip(
                    table.faults(), table.units.tolist(), table.x_events, table.z_events
                )
            ],
        },
    )
    _progress(f"enumerated {len(table)} faults")
    return 0


def _cmd_dump_graph(args) -> int:
    L = args.distance
    T = args.rounds if args.rounds is not None else L
    gx, gz = build_decoder_graphs(L, T, args.p, args.idle_noise)
    graph = gx if args.lattice == "X" else gz
    _write_json(args.out, graph_to_dict(graph))
    _progress(f"dumped {args.lattice} lattice: {len(graph.edges)} edges")
    return 0


def _cmd_dump_layout(args) -> int:
    layout = build_layout(args.distance)
    circuit = build_se_circuit(layout)
    _write_json(args.out, layout_to_dict(layout, circuit))
    _progress(f"dumped layout: {layout.n_data} data qubits")
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.distance, args.rounds, args.p, args.instances)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


_DISPATCH = {
    "simulate": _cmd_simulate,
    "lifetime": _cmd_lifetime,
    "threshold": _cmd_threshold,
    "fit": _cmd_fit,
    "enumerate-faults": _cmd_enumerate,
    "dump-graph": _cmd_dump_graph,
    "dump-layout": _cmd_dump_layout,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_with_config_flags(argv))  # exits 2 on usage errors
        _check_outputs(args)
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        # invalid parameter combinations are usage errors
        _progress(f"usage error: {exc}")
        return 2
    except RuntimeError as exc:
        _progress(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

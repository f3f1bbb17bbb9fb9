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
import json
import sys

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

CSV_COLUMNS = [
    "distance",
    "rounds",
    "p",
    "decoder",
    "trials",
    "failures",
    "rate",
    "ci_low",
    "ci_high",
    "mean_extra_iterations",
    "monotonicity_violations",
    "nonconverged",
]


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write_csv(path: str, rows: list[dict], columns=None) -> None:
    columns = columns or CSV_COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _bool_flag(value: str) -> bool:
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {value!r}")


def _load_config_file(path: str) -> dict:
    """Flat key=value file; keys use the long flag names without dashes."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfdec",
        description="Surface-code decoding laboratory (MWPM / IRMWPM).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, trials_default=1000):
        sp.add_argument("--config", help="flat key=value file; flags override it")
        sp.add_argument("--distance", type=int, required=True)
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--decoder", choices=("mwpm", "irmwpm"), default="irmwpm")
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument(
            "--idle-noise", type=_bool_flag, default=True,
            help="once-per-round data memory fault (on/off, default on)",
        )
        sp.add_argument(
            "--prune", type=int, default=None, metavar="M",
            help="match only each event's M nearest partners (default: exact)",
        )

    sp = sub.add_parser("simulate", help="memory-trial logical error rate")
    add_common(sp)
    sp.add_argument("--rounds", type=int, default=None, help="default: distance")
    sp.add_argument("--max-iters", type=int, default=10)
    sp.add_argument(
        "--stopping", choices=STOPPING_MODES, default="consecutive"
    )
    sp.add_argument("--reweight-boundary", type=_bool_flag, default=True)
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.add_argument("--json", dest="json_out", help="optional JSON output path")

    sp = sub.add_parser("lifetime", help="average logical-qubit lifetime")
    add_common(sp, trials_default=100)
    sp.add_argument("--rounds", type=int, default=None, help="default: distance")
    sp.add_argument("--max-iters", type=int, default=10)
    sp.add_argument(
        "--check-period", type=int, default=None,
        help="rounds between checks, a multiple of --rounds (default: distance)",
    )
    sp.add_argument("--cap", type=int, default=1_000_000)
    sp.add_argument("--out", required=True, help="CSV output path")

    sp = sub.add_parser("threshold", help="crossing-point scan over (p, L)")
    sp.add_argument("--config", help="flat key=value file; flags override it")
    sp.add_argument("--distances", type=int, nargs="+", required=True)
    sp.add_argument("--p-grid", type=float, nargs="+", required=True)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--decoder", choices=("mwpm", "irmwpm"), default="irmwpm")
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--idle-noise", type=_bool_flag, default=True)
    sp.add_argument("--max-iters", type=int, default=10)
    sp.add_argument(
        "--prune", type=int, default=None, metavar="M",
        help="match only each event's M nearest partners (default: exact)",
    )
    sp.add_argument("--out", required=True, help="JSON output path")
    sp.add_argument("--csv", dest="csv_out", help="optional per-point CSV path")

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


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Read --config early and fold its values in as parser defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        parser.error("--config needs a path")
    values = _load_config_file(path)
    known = {
        a.dest
        for sp in parser._subparsers._group_actions
        for choice in sp.choices.values()
        for a in choice._actions
    }
    for key in values:
        if key not in known:
            parser.error(f"unknown config key {key!r} in {path}")
    # fold config values in as defaults on every subparser that knows them
    for sp_action in parser._subparsers._group_actions:
        for choice in sp_action.choices.values():
            for action in choice._actions:
                if action.dest in values:
                    raw = values[action.dest]
                    if action.type is not None:
                        try:
                            parsed = action.type(raw)
                        except Exception:
                            parser.error(
                                f"bad value {raw!r} for config key {action.dest}"
                            )
                    else:
                        parsed = raw
                    choice.set_defaults(**{action.dest: parsed})
    return argv


def _cmd_simulate(args) -> int:
    cfg = SimConfig(
        L=args.distance,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        T=args.rounds,
        decoder=args.decoder,
        max_iterations=args.max_iters,
        stopping=args.stopping,
        threads=args.threads,
        idle_noise=args.idle_noise,
        reweight_boundary=args.reweight_boundary,
        prune_neighbors=args.prune,
    )
    _progress(
        f"simulate: L={cfg.L} T={cfg.rounds} p={cfg.p} decoder={cfg.decoder} "
        f"trials={cfg.trials}"
    )
    est = estimate_rate(cfg)
    _write_csv(args.out, [est.to_row()])
    if args.json_out:
        _write_json(
            args.json_out,
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
    cfg = SimConfig(
        L=args.distance,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        T=args.rounds,
        decoder=args.decoder,
        max_iterations=args.max_iters,
        check_period=args.check_period,
        threads=args.threads,
        idle_noise=args.idle_noise,
        lifetime_cap=args.cap,
        prune_neighbors=args.prune,
    )
    _progress(f"lifetime: L={cfg.L} p={cfg.p} trials={cfg.trials}")
    est = estimate_lifetime(cfg)
    _write_csv(
        args.out,
        [est.to_row()],
        columns=["distance", "p", "decoder", "trials", "mean_rounds", "capped"],
    )
    _progress(f"mean lifetime {est.mean_rounds:.1f} rounds ({est.capped} capped)")
    return 0


def _cmd_threshold(args) -> int:
    # reject a grid the scan cannot use before simulating any of its points
    check_threshold_grid(args.distances, args.p_grid)
    rates = {}
    rows = []
    for L in args.distances:
        for p in args.p_grid:
            cfg = SimConfig(
                L=L,
                p=p,
                trials=args.trials,
                seed=args.seed,
                decoder=args.decoder,
                max_iterations=args.max_iters,
                threads=args.threads,
                idle_noise=args.idle_noise,
                prune_neighbors=args.prune,
            )
            _progress(f"threshold point: L={L} p={p} trials={args.trials}")
            est = estimate_rate(cfg)
            rates[(L, p)] = est
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
            "max_iterations": args.max_iters,
            "idle_noise": args.idle_noise,
            "prune_neighbors": args.prune,
        },
        "points": rows,
        "threshold": result.to_dict(),
    }
    _write_json(args.out, out)
    if args.csv_out:
        _write_csv(args.csv_out, rows)
    if result.no_crossing:
        _progress("no crossing found in the scanned range")
    else:
        _progress(f"crossing at p = {result.crossing:.4f} +- {result.crossing_std:.4f}")
    return 0


def _cmd_fit(args) -> int:
    points = []
    with open(args.input) as fh:
        for row in csv.DictReader(fh):
            points.append(
                (float(row["p"]), int(row["distance"]), float(row["rate"]))
            )
    fit = fit_scaling(points)
    out = {
        "schema": RESULT_SCHEMA,
        "n_points": len(points),
        "fit": fit.to_dict(),
        "predictions": [
            {"p": p, "distance": int(L), "rate": fit.predict(p, int(L))}
            for p, L in args.predict
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
    records = enumerate_single_faults(layout, circuit, T, args.idle_noise)
    _write_json(
        args.out,
        {
            "schema": RESULT_SCHEMA,
            "distance": L,
            "rounds": T,
            "idle_noise": args.idle_noise,
            "faults": [
                {
                    "fault": rec.fault.describe(circuit),
                    "round": rec.fault.round,
                    "kind": rec.fault.kind,
                    "index": rec.fault.index,
                    "payload": rec.fault.payload,
                    "coefficient": str(rec.coeff),
                    "x_lattice_events": [list(e) for e in rec.x_events],
                    "z_lattice_events": [list(e) for e in rec.z_events],
                }
                for rec in records
            ],
        },
    )
    _progress(f"enumerated {len(records)} faults")
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
    report = run_verification(
        L=args.distance,
        T=args.rounds,
        p=args.p,
        matcher_instances=args.instances,
        syndrome_instances=args.instances,
    )
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
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)  # exits 2 on usage errors
    try:
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

"""Command-line interface: ``python -m repro <command> ...``.

The CLI exposes the library's main entry points for quick experimentation
without writing Python:

``token-dropping``
    Generate (or load the Figure 2) game, solve it with the chosen
    algorithm, print the configuration, traversals, and round counts.
``orient``
    Generate an orientation workload, run the phase algorithm (or a
    baseline), print the orientation and its round counts.
``assign``
    Generate a customer--server workload, run the stable assignment (or
    the k-bounded relaxation / greedy), print loads and quality.
``experiments``
    Regenerate the measured experiment tables (same as
    ``scripts/run_experiments.py``).
``serve``
    Solve an orientation workload once (or restore a snapshot) and serve
    it over length-prefixed JSON/TCP until shut down; see
    :mod:`repro.serve`.

Every command accepts ``--seed`` so runs are reproducible, and ``--dot``
writes a Graphviz rendering of the result next to the textual output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.analysis.reporting import banner

# Each command imports what it runs: the workload generators pull in
# networkx, and ``serve`` (whose restart time is measured) needs neither
# them nor the renderers.


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed token dropping, stable orientations, and stable "
        "assignments (reproduction of Brandt et al., SPAA 2021).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    td = sub.add_parser(
        "token-dropping", help="generate and solve a token dropping game"
    )
    td.add_argument(
        "--figure2", action="store_true", help="use the paper's Figure 2 game"
    )
    td.add_argument(
        "--levels", type=int, default=6, help="number of levels (default 6)"
    )
    td.add_argument("--width", type=int, default=6, help="nodes per level (default 6)")
    td.add_argument("--edge-probability", type=float, default=0.4)
    td.add_argument("--token-fraction", type=float, default=0.5)
    td.add_argument(
        "--algorithm",
        choices=["proposal", "three-level", "greedy"],
        default="proposal",
        help="proposal = Theorem 4.1; three-level = Theorem 4.7 (heights <= 2); "
        "greedy = centralized",
    )
    td.add_argument("--seed", type=int, default=0)
    td.add_argument("--tails", action="store_true", help="also print traversal tails")
    td.add_argument(
        "--dot", type=str, default=None, help="write a Graphviz DOT file here"
    )

    orient = sub.add_parser("orient", help="find a stable orientation")
    orient.add_argument(
        "--workload",
        choices=["sensor", "regular"],
        default="sensor",
        help="instance family",
    )
    orient.add_argument("--nodes", type=int, default=80)
    orient.add_argument(
        "--degree",
        type=int,
        default=6,
        help="max degree (sensor) / degree (regular)",
    )
    orient.add_argument(
        "--algorithm",
        choices=["phases", "sequential", "repair", "bounded"],
        default="phases",
        help="phases = Theorem 5.1; bounded = the 0-1-many relaxation (Section 1.4)",
    )
    orient.add_argument("--seed", type=int, default=0)
    orient.add_argument(
        "--dot", type=str, default=None, help="write a Graphviz DOT file here"
    )

    assign = sub.add_parser("assign", help="find a stable assignment")
    assign.add_argument("--jobs", type=int, default=120)
    assign.add_argument("--servers", type=int, default=24)
    assign.add_argument("--replicas", type=int, default=3)
    assign.add_argument("--skew", type=float, default=1.0)
    assign.add_argument(
        "--algorithm",
        choices=["stable", "bounded", "greedy"],
        default="stable",
        help="stable = Theorem 7.3; bounded = Theorem 7.5 (k=2); "
        "greedy = naive baseline",
    )
    assign.add_argument("--seed", type=int, default=0)
    assign.add_argument(
        "--compare-optimal",
        action="store_true",
        help="also compute the exact optimal semi-matching and report the ratio",
    )

    experiments = sub.add_parser(
        "experiments",
        help="regenerate the measured experiment tables via repro.engine (slow)",
    )
    experiments.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the sweeps (1 = serial, 0 = all cores)",
    )
    experiments.add_argument(
        "--cache-dir", type=str, default=None,
        help="on-disk result cache directory (makes the run resumable)",
    )
    experiments.add_argument(
        "--resume", dest="resume", action="store_true", default=True,
        help="reuse cached results where available (default)",
    )
    experiments.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="ignore existing cached results and recompute everything",
    )
    experiments.add_argument(
        "--experiment", "-e", action="append", default=None,
        # Kept in sync with EXPERIMENTS/EXPERIMENT_ALIASES in
        # scripts/run_experiments.py, which re-validates the selection (the
        # script is loaded lazily at command time, so its registry is not
        # importable here at parser-build time).
        choices=[f"E{i}" for i in range(1, 11)],
        help="run only the given experiment id(s), e.g. -e E1 -e E10 (repeatable; "
        "E7/E9 select their joint sections E6/E4)",
    )
    experiments.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="override every sweep's seed list (e.g. --seeds 0 for a smoke run)",
    )
    experiments.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress lines"
    )

    serve = sub.add_parser(
        "serve",
        help="solve an orientation instance and serve it over JSON/TCP",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (default 0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--family", type=str, default="orientation-smoke",
        help="orientation workload family to build and solve "
        "(see repro.workloads.scenarios.ORIENTATION_FAMILIES)",
    )
    serve.add_argument(
        "--params", type=str, default=None,
        help='family parameters as a JSON object, e.g. \'{"num_levels": 8}\'',
    )
    serve.add_argument(
        "--from-snapshot", type=str, default=None,
        help="restore serving state from a snapshot file instead of solving",
    )
    serve.add_argument(
        "--algorithm", choices=["repair", "phases"], default="repair",
        help="solver for the initial orientation (bounded is excluded: "
        "its k-relaxed output cannot enter the incremental engine)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--backend", type=str, default=None,
        help="solver backend (auto/compact/dict; dispatch default when omitted)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=None,
        help="max deltas per coalesced apply (default: "
        "$REPRO_SERVE_MAX_BATCH or 256)",
    )
    serve.add_argument(
        "--coalesce-ms", type=float, default=None,
        help="gathering window after the first queued update (default: "
        "$REPRO_SERVE_COALESCE_MS or 0)",
    )
    return parser


# ----------------------------------------------------------------------
def _cmd_token_dropping(args: argparse.Namespace) -> int:
    from repro.core.token_dropping import (
        greedy_token_dropping,
        run_proposal_algorithm,
        run_three_level_algorithm,
    )
    from repro.render import (
        render_layered_game,
        render_traversals,
        token_dropping_to_dot,
    )
    from repro.workloads import figure2_game, random_token_dropping

    instance = (
        figure2_game()
        if args.figure2
        else random_token_dropping(
            num_levels=args.levels,
            width=args.width,
            edge_probability=args.edge_probability,
            token_fraction=args.token_fraction,
            seed=args.seed,
        )
    )
    print(banner("token dropping game"))
    print(instance.describe())
    print(render_layered_game(instance))

    if args.algorithm == "proposal":
        solution = run_proposal_algorithm(instance, seed=args.seed)
    elif args.algorithm == "three-level":
        solution = run_three_level_algorithm(instance, seed=args.seed)
    else:
        solution = greedy_token_dropping(instance, seed=args.seed)
    report = solution.validate(instance)
    report.raise_if_invalid()

    print()
    if solution.game_rounds is not None:
        print(
            f"solved in {solution.game_rounds} game rounds "
            f"({solution.communication_rounds} communication rounds)"
        )
    else:
        print(f"solved centrally with {solution.total_moves()} sequential moves")
    print(render_layered_game(instance, solution.destinations))
    print()
    print(render_traversals(solution, include_tails=args.tails))

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(token_dropping_to_dot(instance, solution))
        print(f"\nwrote {args.dot}")
    return 0


def _cmd_orient(args: argparse.Namespace) -> int:
    from repro.core.orientation import (
        run_bounded_stable_orientation,
        run_stable_orientation,
        sequential_flip_algorithm,
        synchronous_repair_orientation,
    )
    from repro.render import orientation_to_dot, render_orientation
    from repro.workloads import regular_orientation, sensor_network_orientation

    if args.workload == "sensor":
        problem = sensor_network_orientation(
            num_nodes=args.nodes, max_degree=args.degree, seed=args.seed
        )
    else:
        problem = regular_orientation(
            degree=args.degree, num_nodes=args.nodes, seed=args.seed
        )

    print(banner("stable orientation"))
    print(
        f"{len(problem.nodes)} nodes, {problem.num_edges()} edges, "
        f"Δ={problem.max_degree()}, algorithm={args.algorithm}"
    )
    if args.algorithm == "phases":
        result = run_stable_orientation(problem, seed=args.seed)
        orientation = result.orientation
        print(
            f"phases={result.phases} game_rounds={result.game_rounds} "
            f"stable={result.stable}"
        )
    elif args.algorithm == "bounded":
        result = run_bounded_stable_orientation(problem, seed=args.seed)
        orientation = result.orientation
        print(
            f"phases={result.phases} game_rounds={result.game_rounds} "
            f"0-1-many stable={result.stable}"
        )
    elif args.algorithm == "sequential":
        orientation, stats = sequential_flip_algorithm(
            problem, policy="random", seed=args.seed
        )
        print(f"flips={stats.flips} stable={orientation.is_stable()}")
    else:
        orientation, stats = synchronous_repair_orientation(problem, seed=args.seed)
        print(
            f"iterations={stats.iterations} rounds={stats.communication_rounds} "
            f"stable={orientation.is_stable()}"
        )
    print()
    print(render_orientation(orientation))

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(orientation_to_dot(orientation))
        print(f"\nwrote {args.dot}")
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    from repro.core.assignment import (
        approximation_ratio,
        greedy_assignment,
        optimal_cost,
        run_bounded_stable_assignment,
        run_stable_assignment,
    )
    from repro.render import render_assignment
    from repro.workloads import datacenter_assignment

    graph = datacenter_assignment(
        num_jobs=args.jobs,
        num_servers=args.servers,
        replicas=args.replicas,
        popularity_skew=args.skew,
        seed=args.seed,
    )
    print(banner("stable assignment"))
    print(
        f"{len(graph.customers)} jobs, {len(graph.servers)} servers, "
        f"C={graph.max_customer_degree()}, S={graph.max_server_degree()}, "
        f"algorithm={args.algorithm}"
    )
    if args.algorithm == "stable":
        result = run_stable_assignment(graph, seed=args.seed)
        assignment = result.assignment
        print(
            f"phases={result.phases} game_rounds={result.game_rounds} "
            f"stable={result.stable}"
        )
    elif args.algorithm == "bounded":
        result = run_bounded_stable_assignment(graph, k=2, seed=args.seed)
        assignment = result.assignment
        print(
            f"phases={result.phases} game_rounds={result.game_rounds} "
            f"2-bounded stable={result.stable}"
        )
    else:
        assignment = greedy_assignment(graph, order="random", seed=args.seed)
        print("greedy baseline (no stability guarantee)")

    print(f"semi-matching cost Σf(load) = {assignment.semi_matching_cost()}")
    if args.compare_optimal:
        optimum = optimal_cost(graph)
        print(
            f"optimal cost = {optimum}; "
            f"ratio = {approximation_ratio(assignment, optimum):.4f} "
            "(stable assignments are guaranteed <= 2)"
        )
    print()
    print(render_assignment(assignment, max_rows=20))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    # Import lazily: the experiments module pulls in every subsystem.
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "scripts" / "run_experiments.py"
    if not script.exists():
        print(
            "scripts/run_experiments.py not found "
            "(installed package without the repository)"
        )
        return 1
    spec = importlib.util.spec_from_file_location("run_experiments", script)
    module = importlib.util.module_from_spec(spec)
    # Register before executing: the module defines dataclasses, whose
    # decorator looks its module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # type: ignore[union-attr]

    argv: List[str] = ["--jobs", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if not args.resume:
        argv += ["--no-resume"]
    for experiment in args.experiment or []:
        argv += ["--experiment", experiment]
    if args.seeds:
        argv += ["--seeds", *[str(s) for s in args.seeds]]
    if args.quiet:
        argv += ["--quiet"]
    return int(module.main(argv))


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving stack (asyncio, snapshot mmap) is not
    # needed by any other command.
    import asyncio
    import json

    from repro import obs
    from repro.serve import OrientationServer, ServeConfig, load_state

    if args.from_snapshot:
        dynamic = load_state(args.from_snapshot)
        origin = f"snapshot {args.from_snapshot}"
    else:
        from repro.api import Instance, solve

        params = json.loads(args.params) if args.params else {}
        instance = Instance.build(args.family, **params)
        solved = solve(
            instance,
            algorithm=args.algorithm,
            backend=args.backend,
            seed=args.seed,
        )
        dynamic = solved.dynamic()
        origin = (
            f"{args.family} solved with {args.algorithm} "
            f"({solved.backend} backend, seed {args.seed})"
        )

    config = ServeConfig(host=args.host, port=args.port)
    if args.max_batch is not None:
        config.max_batch = args.max_batch
    if args.coalesce_ms is not None:
        config.coalesce_ms = args.coalesce_ms

    async def _run() -> None:
        with obs.span("serve.start") as sp:
            server = OrientationServer(dynamic, config)
            await server.start()
            host, port = server.address
            sp.set(port=port)
        print(banner("serving stable orientation"))
        print(f"state: {origin}")
        print(
            f"{dynamic.num_nodes} nodes, {dynamic.num_edges} edges, "
            f"max_batch={config.max_batch}, coalesce_ms={config.coalesce_ms}"
        )
        print(f"listening on {host}:{port}", flush=True)
        await server.serve_forever()
        print("server stopped")

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print("interrupted")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "token-dropping": _cmd_token_dropping,
        "orient": _cmd_orient,
        "assign": _cmd_assign,
        "experiments": _cmd_experiments,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

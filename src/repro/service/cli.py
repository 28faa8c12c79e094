"""Command-line front end: ``python -m repro.service <command>``.

Commands
--------
``serve``    run the service (store + scheduler + HTTP API) until ^C/kill
``worker``   run a fleet worker that leases campaign shards from a
             running service (``--host/--port``) until ^C
``submit``   build a campaign job from a bundled program or source file
             and submit it (``--wait`` streams progress and prints the
             final tally)
``status``   service health, one job's status, or the recent job list
``top``      live terminal view: queue depth, runner utilisation, fleet
             shard states, trial throughput (``--once`` for one frame)
``results``  a finished job's merged outcome tally
``map``      a finished job's per-instruction vulnerability map
             (rendered; ``--json`` for the raw payload)
``diff``     residual-vulnerability diff of two finished jobs (same
             workload, two schemes)

Quickstart::

    python -m repro.service serve --port 8731 --db campaigns.sqlite &
    python -m repro.service submit --program integer_compare \\
        --function integer_compare --args 7,7 --scheme ancode \\
        --attack branch-flip:max_branches=8 --attack repeated-branch-flip \\
        --wait
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Any, Optional

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import ATTACK_SUITES, AttackSpec, CampaignJob, JobError

DEFAULT_PORT = 8731


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.http import serving

    # SIGTERM (``kill``) stops the service like ^C: cleanly, exit 0.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with serving(
            args.db,
            host=args.host,
            port=args.port,
            resume=args.resume,
            runners=args.runners,
            trial_workers=args.trial_workers,
            lease_ttl=args.lease_ttl,
            observability=args.observability,
        ) as (server, recovered, resumed):
            print(
                f"repro.service listening on http://{server.host}:{server.port} "
                f"(db={args.db}, runners={args.runners}, "
                f"trial_workers={args.trial_workers}, lease_ttl={args.lease_ttl}s, "
                f"recovered {recovered}, resumed {resumed} job(s))",
                flush=True,
            )
            server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro.service stopped", flush=True)
    return 0


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------
def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.fleet import FleetRunner

    runner = FleetRunner(
        f"{args.host}:{args.port}",
        worker_id=args.id,
        ttl=args.ttl,
        trial_workers=args.trial_workers,
    )
    print(
        f"fleet worker {runner.worker_id} leasing from "
        f"http://{args.host}:{args.port} (ttl={args.ttl}s, "
        f"trial_workers={args.trial_workers})",
        flush=True,
    )
    try:
        runner.run_forever(max_shards=args.max_shards)
    except KeyboardInterrupt:
        pass
    finally:
        runner.stop(join=False)
        print(
            f"\nfleet worker {runner.worker_id} stopped "
            f"({runner.shards_done} shard(s) done, "
            f"{runner.shards_failed} failed)",
            flush=True,
        )
    return 0


# ---------------------------------------------------------------------------
# submit
# ---------------------------------------------------------------------------
def parse_attack(spec: str) -> AttackSpec:
    """Parse ``suite[:key=value[,key=value...]]``.

    Values are JSON (ints, bools, ``[0;7]`` lists — semicolons stand in
    for commas inside lists so the option splitter stays simple), with a
    bare-string fallback.
    """
    suite, _, rest = spec.partition(":")
    kwargs: dict[str, Any] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise JobError(
                    f"bad attack option {item!r} in {spec!r}; expected key=value"
                )
            try:
                kwargs[key.strip()] = json.loads(value.strip().replace(";", ","))
            except json.JSONDecodeError:
                kwargs[key.strip()] = value.strip()
    return AttackSpec.make(suite.strip(), **kwargs)


def _build_job(args: argparse.Namespace) -> CampaignJob:
    from repro.toolchain.config import CompileConfig

    if bool(args.program) == bool(args.source):
        raise JobError("pass exactly one of --program NAME or --source FILE")
    if args.program:
        from repro.programs import load_source

        source = load_source(args.program)
        title = args.title or f"{args.program}/{args.scheme}"
    else:
        with open(args.source) as handle:
            source = handle.read()
        title = args.title or f"{args.source}/{args.scheme}"
    attacks = tuple(parse_attack(spec) for spec in args.attack) or (
        AttackSpec.make("branch-flip", max_branches=8),
        AttackSpec.make("repeated-branch-flip"),
    )
    workload_args = tuple(
        int(a) for a in args.args.split(",") if a.strip() != ""
    )
    return CampaignJob(
        source=source,
        function=args.function,
        args=workload_args,
        config=CompileConfig(
            scheme=args.scheme,
            cfi_policy=args.cfi_policy,
            target=args.target,
        ),
        attacks=attacks,
        title=title,
    )


def _print_tally(result: dict[str, Any], out=sys.stdout) -> None:
    report = result.get("report") or {}
    print(f"scheme: {report.get('scheme')}", file=out)
    for label, attack in (report.get("attacks") or {}).items():
        outcomes = ", ".join(
            f"{name}={count}"
            for name, count in sorted(attack.get("outcomes", {}).items())
        )
        print(
            f"  {label}: trials={attack.get('trials')} {outcomes}"
            + (
                f" wrong_codes={attack['wrong_codes']}"
                if attack.get("wrong_codes")
                else ""
            ),
            file=out,
        )


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.host, args.port)
    job = _build_job(args)
    submitted = client.submit(job, priority=args.priority)
    job_id = submitted["job_id"]
    if args.json and not args.wait:
        print(json.dumps(submitted))
        return 0
    if not args.wait:
        print(
            f"submitted {job_id} "
            f"({'deduplicated' if submitted['deduplicated'] else 'queued'})"
        )
        return 0
    for event in client.stream(job_id):
        kind = event.get("event")
        if kind == "attack-finished" and not args.json:
            attack = event["result"]
            print(
                f"[{job_id[:12]}] {attack['attack']}: "
                f"trials={attack['trials']} outcomes={attack['outcomes']}"
            )
        elif kind in ("failed", "cancelled") and not args.json:
            print(f"[{job_id[:12]}] {kind}: {event.get('error', '')}")
    status = client.status(job_id)
    if status["state"] != "done":
        print(f"job {job_id} ended {status['state']}: {status.get('error')}")
        return 1
    result = client.results(job_id)
    if args.json:
        print(json.dumps({"job_id": job_id, "result": result}))
    else:
        _print_tally(result)
    return 0


# ---------------------------------------------------------------------------
# status / results
# ---------------------------------------------------------------------------
def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.top import run_top

    client = ServiceClient(args.host, args.port)
    iterations = 1 if args.once else args.iterations
    return run_top(
        client,
        interval=args.interval,
        iterations=iterations,
        clear=not args.once and not args.no_clear,
    )


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.host, args.port)
    if args.job_id:
        payload: Any = client.status(args.job_id)
    elif args.list:
        payload = client.jobs(state=args.state)
    else:
        payload = client.service_status()
    print(json.dumps(payload, indent=None if args.json else 2))
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    client = ServiceClient(args.host, args.port)
    result = client.results(args.job_id, wait=args.wait)
    if args.json:
        print(json.dumps(result))
    elif result.get("kind") == "campaign":
        _print_tally(result)
    else:
        print(json.dumps(result, indent=2))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    client = ServiceClient(args.host, args.port)
    payload = client.map(args.job_id)
    if args.json:
        print(json.dumps(payload))
        return 0
    from repro.analysis import VulnerabilityMap, render_map

    vmap = VulnerabilityMap.from_dict(payload["map"])
    print(render_map(vmap, max_cells=args.max_cells))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    client = ServiceClient(args.host, args.port)
    payload = client.diff(args.job_a, args.job_b)
    if args.json:
        print(json.dumps(payload))
        return 0
    from repro.analysis import SchemeDiff, render_diff

    print(render_diff(SchemeDiff.from_dict(payload["diff"])))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Fault-campaign service: queue, execute, store, stream.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the service until interrupted")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--db",
        default="repro-service.sqlite",
        help="persistent result store (':memory:' for ephemeral)",
    )
    serve.add_argument("--runners", type=int, default=2)
    serve.add_argument(
        "--trial-workers",
        type=int,
        default=0,
        help="processes per runner thread for trial sharding (0 = in-process)",
    )
    serve.add_argument(
        "--no-resume",
        dest="resume",
        action="store_false",
        help="do not re-enqueue jobs left queued/running in the store",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=10.0,
        dest="lease_ttl",
        help="fleet shard lease TTL in seconds (a worker silent this long "
        "loses its shard to work-stealing)",
    )
    serve.add_argument(
        "--no-observability",
        dest="observability",
        action="store_false",
        help="disable span tracing and trace persistence "
        "(/metrics and /status counters stay available)",
    )
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run a fleet worker: lease campaign shards from a service",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=DEFAULT_PORT)
    worker.add_argument("--id", help="worker id (default: generated)")
    worker.add_argument(
        "--ttl",
        type=float,
        default=5.0,
        help="lease TTL this worker requests (heartbeats run at ttl/3)",
    )
    worker.add_argument(
        "--trial-workers",
        type=int,
        default=0,
        help="processes for trial sharding within each shard (0 = in-process)",
    )
    worker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="exit after completing N shards (default: run until ^C)",
    )
    worker.set_defaults(func=_cmd_worker)

    submit = sub.add_parser("submit", help="submit a campaign job")
    _add_endpoint_args(submit)
    submit.add_argument("--program", help="bundled device program name")
    submit.add_argument("--source", help="MiniC source file")
    submit.add_argument("--function", required=True, help="workload entry point")
    submit.add_argument("--args", default="", help="comma-separated int args")
    submit.add_argument("--scheme", default="ancode")
    submit.add_argument(
        "--target",
        default="baseline",
        help="machine target (see repro.target; e.g. baseline, rv32)",
    )
    submit.add_argument("--cfi-policy", default="merge", dest="cfi_policy")
    submit.add_argument(
        "--attack",
        action="append",
        default=[],
        metavar="SUITE[:k=v,...]",
        help=f"attack suite ({', '.join(sorted(ATTACK_SUITES))}); repeatable. "
        f"Default: branch-flip:max_branches=8 + repeated-branch-flip",
    )
    submit.add_argument("--title", default="")
    submit.add_argument("--priority", type=int, default=None)
    submit.add_argument(
        "--wait", action="store_true", help="stream progress and print the tally"
    )
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="service, job, or job-list status")
    _add_endpoint_args(status)
    status.add_argument("job_id", nargs="?", help="job id (omit for service)")
    status.add_argument("--list", action="store_true", help="list recent jobs")
    status.add_argument("--state", help="filter --list by state")
    status.set_defaults(func=_cmd_status)

    top = sub.add_parser(
        "top", help="live terminal view of queue, fleet, and throughput"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=DEFAULT_PORT)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (throughput is the counter delta "
        "across this window)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render N frames then exit (default: run until ^C)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing in place",
    )
    top.set_defaults(func=_cmd_top)

    results = sub.add_parser("results", help="fetch a job's stored result")
    _add_endpoint_args(results)
    results.add_argument("job_id")
    results.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    results.set_defaults(func=_cmd_results)

    map_cmd = sub.add_parser(
        "map", help="per-instruction vulnerability map of a finished job"
    )
    _add_endpoint_args(map_cmd)
    map_cmd.add_argument("job_id")
    map_cmd.add_argument(
        "--max-cells",
        type=int,
        default=40,
        help="truncate the rendered table to N instructions (JSON is never truncated)",
    )
    map_cmd.set_defaults(func=_cmd_map)

    diff_cmd = sub.add_parser(
        "diff", help="residual-vulnerability diff of two finished jobs"
    )
    _add_endpoint_args(diff_cmd)
    diff_cmd.add_argument("job_a", help="job id of scheme A")
    diff_cmd.add_argument("job_b", help="job id of scheme B")
    diff_cmd.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (JobError, ServiceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

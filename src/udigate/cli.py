"""Command line entry points.

Subcommands:

    gateway serve     run the image gateway HTTP API with a worker pool
    registry serve    serve a directory-backed image registry
    job submit        run a job description through the cluster simulator
    run               one-off containerized command (1 node, 1 rank)
    chaos run         execute a numbered fault-injection scenario
    bench startup     measure job startup across node counts, write CSV
    bench classify    fit scaling regimes to a benchmark CSV
    admin expire      retire or clear an image record in a state directory

Exit codes: 0 success, 1 usage or operational error, 2 scenario failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from .bench import bench_startup, classify_scaling, read_rows, write_rows
from .clock import SystemClock
from .cluster import (
    MODE_DIRECTIVE,
    MODE_PER_COMMAND,
    UDI_GRES,
    ClusterSim,
    JobCommand,
    JobSpec,
    parse_job_file,
)
from .config import Config, load_config
from .chaos import run_scenario
from .errors import StorageIoError, UdigateError, UnknownScenario
from .gateway import Gateway
from .httpd import make_gateway_server, make_registry_server
from .refs import parse_reference
from .registry import HttpRegistryClient, LocalRegistry, fixture_layers
from .service import GatewayRuntime

log = logging.getLogger(__name__)


def _load_config(path: str | None) -> Config:
    if path:
        return load_config(path)
    return Config()


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _image_arg(text: str) -> tuple[str, int]:
    """``name:tag=SIZE`` with SIZE a finite number of bytes >= 0 (float
    notation accepted)."""
    ref, sep, size = text.rpartition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME:TAG=SIZE, got {text!r}")
    try:
        value = float(size)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"bad image size {size!r}")
    return ref, int(value)


def _seed_registry(registry: LocalRegistry, refs: set[str],
                   size_bytes: int = 64 * 1024 * 1024) -> None:
    for text in sorted(refs):
        ref = parse_reference(text)
        name = f"{ref.repository}/{ref.name}" if ref.repository else ref.name
        registry.add_image(name, ref.tag, fixture_layers(), total_size=size_bytes)


def _print_result(job_id: str, result) -> None:
    print(f"{job_id}: {result.outcome}")
    if result.reason:
        print(f"  reason: {result.reason}")
    print(f"  prologue: {result.prologue_duration:.6f}s")
    print(f"  exec:     {result.exec_duration:.6f}s")
    print(f"  epilogue: {result.epilogue_duration:.6f}s")
    print(f"  startup:  {result.startup_seconds:.6f}s")
    if result.commands_failed:
        print(f"  commands failed: {result.commands_failed}")
    for line in result.per_node_events:
        print(f"  event: {line}")


# -- subcommand bodies -----------------------------------------------------------


def _cmd_gateway_serve(args) -> int:
    cfg = _load_config(args.config)
    if args.registry_url:
        registry = HttpRegistryClient(args.registry_url)
    else:
        registry = LocalRegistry.load_from_dir(args.registry_root)
    clock = SystemClock()
    verifier = None
    if not args.no_auth:
        from .authsvc import CredentialVerifier
        verifier = CredentialVerifier(cfg.secret, cfg.credential_ttl, clock)
    gateway = Gateway(cfg, clock, registry, args.state_dir, verifier=verifier)
    recovered = gateway.recover_on_startup()
    if recovered:
        log.warning("failed %d records stuck from a previous run", len(recovered))
    runtime = GatewayRuntime(gateway)
    gateway.task_sink = runtime.submit
    runtime.start()
    server = make_gateway_server(gateway, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"gateway listening on http://{host}:{port}/api/ (state: {args.state_dir})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        runtime.stop()
        gateway.close()
    return 0


def _cmd_registry_serve(args) -> int:
    registry = LocalRegistry.load_from_dir(args.root)
    server = make_registry_server(registry, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"registry listening on http://{host}:{port}/registry/ (root: {args.root})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _spec_from_args(args) -> JobSpec:
    if args.specfile:
        with open(args.specfile, "r", encoding="utf-8") as fh:
            spec = parse_job_file(fh.read())
    else:
        spec = JobSpec(nodes=1, ranks_per_node=1, image_mode=MODE_DIRECTIVE)
    updates: dict = {}
    if args.nodes is not None:
        updates["nodes"] = args.nodes
    if args.ranks is not None:
        updates["ranks_per_node"] = args.ranks
    if args.per_command:
        updates["image_mode"] = MODE_PER_COMMAND
    if args.udi is not None:
        updates["udi"] = args.udi
        updates["image_mode"] = MODE_DIRECTIVE
    if args.gres is not None:
        updates["gres"] = tuple(t for t in args.gres.replace(",", " ").split() if t)
    if updates:
        import dataclasses
        spec = dataclasses.replace(spec, **updates)
    return spec


def _run_one_job(spec: JobSpec, seed: int, config: Config,
                 cluster_nodes: int | None = None) -> int:
    registry = LocalRegistry()
    images = {c.image for c in spec.commands if c.image}
    if spec.udi:
        images.add(spec.udi)
    if images:
        _seed_registry(registry, images)
    sim = ClusterSim(config, seed=seed, n_nodes=cluster_nodes or spec.nodes,
                     registry=registry)
    try:
        job_id = sim.submit(spec)
        result = sim.run()[job_id]
    finally:
        sim.cleanup()
    _print_result(job_id, result)
    return 0 if result.outcome == "success" else 1


def _cmd_job_submit(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec_from_args(args)
    return _run_one_job(spec, args.seed, cfg, cluster_nodes=args.cluster_nodes)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    spec = JobSpec(nodes=1, ranks_per_node=1, image_mode=MODE_DIRECTIVE,
                   gres=(UDI_GRES,), udi=args.image,
                   commands=(JobCommand(argv=" ".join(args.command) or "true"),))
    return _run_one_job(spec, args.seed, cfg)


def _cmd_chaos_run(args) -> int:
    cfg = _load_config(args.config)
    report = run_scenario(args.scenario, seed=args.seed, config=cfg)
    print(report.to_text())
    if args.trace and report.tracer is not None:
        report.tracer.write(args.trace)
        print(f"trace written to {args.trace}")
    return 0 if report.passed else 2


def _cmd_bench_startup(args) -> int:
    cfg = _load_config(args.config)
    rows = bench_startup(args.nodes, args.ranks, args.image, mode=args.mode,
                         seed=args.seed, config=cfg)
    write_rows(args.csv, rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def _cmd_bench_classify(args) -> int:
    rows = read_rows(args.csv)
    report = classify_scaling(rows, window=args.window)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return 0


def _cmd_admin_expire(args) -> int:
    cfg = _load_config(args.config)
    ref = parse_reference(args.image, system=args.system)
    try:
        gateway = Gateway(cfg, SystemClock(), LocalRegistry(), args.state_dir,
                          verifier=None)
    except StorageIoError as exc:
        raise StorageIoError(f"{exc}; this command is for a stopped gateway, a running one "
                             f"expires through POST /api/expire/{ref.system}/{ref.canonical()}"
                             ) from exc
    try:
        rec = gateway.expire(ref)
        print(f"{ref.canonical()}: {rec.state}")
    finally:
        gateway.close()
    return 0


# -- parser wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="udigate",
                                     description="container image gateway tools")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gateway", help="gateway daemon")
    gsub = p.add_subparsers(dest="sub", required=True)
    g = gsub.add_parser("serve", help="serve the gateway HTTP API")
    g.add_argument("--config", default=None)
    g.add_argument("--state-dir", required=True)
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--registry-root", default=None)
    src.add_argument("--registry-url", default=None)
    g.add_argument("--host", default="127.0.0.1")
    g.add_argument("--port", type=int, default=8080)
    g.add_argument("--no-auth", action="store_true",
                   help="accept requests without credentials")
    g.set_defaults(fn=_cmd_gateway_serve)

    p = sub.add_parser("registry", help="registry daemon")
    rsub = p.add_subparsers(dest="sub", required=True)
    r = rsub.add_parser("serve", help="serve a directory-backed registry")
    r.add_argument("--root", required=True)
    r.add_argument("--host", default="127.0.0.1")
    r.add_argument("--port", type=int, default=8081)
    r.set_defaults(fn=_cmd_registry_serve)

    p = sub.add_parser("job", help="simulated jobs")
    jsub = p.add_subparsers(dest="sub", required=True)
    j = jsub.add_parser("submit", help="run a job spec through the simulator")
    j.add_argument("specfile", nargs="?", default=None)
    j.add_argument("--nodes", type=int, default=None)
    j.add_argument("--ranks", type=int, default=None)
    j.add_argument("--udi", default=None, help="job-wide image (Directive mode)")
    j.add_argument("--per-command", action="store_true",
                   help="PerCommand mode: images are chosen per run[...] line")
    j.add_argument("--gres", default=None,
                   help=f"comma list of resource tokens; containerized jobs "
                        f"need '{UDI_GRES}'")
    j.add_argument("--seed", type=int, default=1)
    j.add_argument("--config", default=None)
    j.add_argument("--cluster-nodes", type=int, default=None)
    j.set_defaults(fn=_cmd_job_submit)

    run_p = sub.add_parser("run", help="run one command in an image")
    run_p.add_argument("--image", required=True)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--config", default=None)
    run_p.add_argument("command", nargs="*", default=[])
    run_p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("chaos", help="fault-injection scenarios")
    csub = p.add_subparsers(dest="sub", required=True)
    c = csub.add_parser("run", help="run one scenario")
    c.add_argument("--scenario", type=int, required=True)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--config", default=None)
    c.add_argument("--trace", default=None, help="write the event trace here")
    c.set_defaults(fn=_cmd_chaos_run)

    p = sub.add_parser("bench", help="startup benchmarks")
    bsub = p.add_subparsers(dest="sub", required=True)
    b = bsub.add_parser("startup", help="measure startup, write CSV")
    b.add_argument("--nodes", type=_int_list, required=True,
                   help="comma list of node counts")
    b.add_argument("--ranks", type=_int_list, default=[1])
    b.add_argument("--image", type=_image_arg, action="append", required=True,
                   metavar="NAME:TAG=SIZE")
    b.add_argument("--mode", choices=[MODE_DIRECTIVE, MODE_PER_COMMAND],
                   default=MODE_DIRECTIVE)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--config", default=None)
    b.add_argument("--csv", required=True)
    b.set_defaults(fn=_cmd_bench_startup)
    cl = bsub.add_parser("classify", help="fit scaling regimes to a CSV")
    cl.add_argument("--csv", required=True)
    cl.add_argument("--window", type=int, default=3)
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(fn=_cmd_bench_classify)

    p = sub.add_parser("admin", help="operator tools")
    asub = p.add_subparsers(dest="sub", required=True)
    a = asub.add_parser("expire", help="retire or clear an image record")
    a.add_argument("image")
    a.add_argument("--state-dir", required=True)
    a.add_argument("--system", default="local")
    a.add_argument("--config", default=None)
    a.set_defaults(fn=_cmd_admin_expire)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; keep 2 for scenario
        # failures only
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except UnknownScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UdigateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable --config, secret_file, csv ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

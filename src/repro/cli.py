"""Command-line interface: ``python -m repro <command>``.

``repro --help`` lists the commands and ``repro <command> --help`` their
options.  Every registered experiment runs through ``repro scenario
run <id>``, which exits 1 when the run breaks its spec's ``expect``
contract; bad input exits 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.diagram import sequence_diagram
from .analysis.report import render_kv, render_table
from .analysis.experiments import all_terminated
from .core import (
    ProviderBehavior,
    Verdict,
    dispute_tampering,
    make_deployment,
    run_download,
    run_session,
    run_upload,
)
from .engine import run_pool
from .errors import ReproError
from .net.channel import ChannelSpec
from .scenarios import SCENARIOS
from .storage.tamper import TamperMode

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    dep = make_deployment(
        seed=args.seed.encode(),
        behavior=ProviderBehavior(tamper_mode=TamperMode.FIXUP_MD5),
    )
    outcome = run_upload(dep, b"the company financial data " * 16)
    download = run_download(dep, outcome.transaction_id)
    ruling = dispute_tampering(dep, outcome.transaction_id)
    print(render_kv(
        [
            ("transaction", outcome.transaction_id),
            ("upload status", outcome.upload_status.value),
            ("upload messages", outcome.steps),
            ("tampering detected at download", download.tampering_detected),
            ("arbitrator verdict", ruling.verdict.value),
        ],
        title="TPNR demo: upload -> covert tampering -> download -> arbitration",
    ))
    print("\nWire sequence:")
    print(sequence_diagram(dep.network.trace, "tpnr.",
                           participants=[dep.client.name, dep.provider.name, dep.ttp.name]))
    return 0 if ruling.verdict is Verdict.PROVIDER_FAULT else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    """N tenants x M sessions on the engine pool over a lossy channel;
    exit non-zero unless every session terminated."""
    for flag, value in (("--clients", args.clients),
                        ("--transactions", args.transactions)):
        if value < 1:
            raise ReproError(f"{flag} must be >= 1 (got {value})")
    channel = ChannelSpec(base_latency=0.02, drop_prob=args.drop)
    result = run_pool(args.seed.encode(), args.clients,
                      transactions_per_tenant=args.transactions, channel=channel)
    statuses = [s.upload_status for s in result.sessions]
    terminated = all_terminated(result)
    print(render_kv(
        [
            ("clients", args.clients),
            ("sessions", len(result.sessions)),
            ("drop probability", args.drop),
            ("success rate", f"{result.completed / len(result.sessions):.2f}"),
            ("outcomes", str({s: statuses.count(s) for s in sorted(set(statuses))})),
            ("verified downloads", result.verified),
            ("messages", result.messages_sent),
            ("bytes on wire", result.bytes_on_wire),
            ("all terminated", terminated),
            ("signature", result.signature()),
        ],
        title="Workload summary",
    ))
    return 0 if terminated else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    """One observed TPNR session; exit non-zero unless the telemetry is
    complete (non-empty metrics, valid span JSONL, complete span tree)."""
    import json
    import pathlib

    from .obs.exporters import (
        metrics_jsonl,
        prometheus_text,
        span_tree_text,
        spans_jsonl,
        summary_table,
    )
    from .obs.instrument import observe_crypto

    dep = make_deployment(seed=args.seed.encode(), observe=True)
    with observe_crypto(dep.obs.metrics):
        outcome = run_session(dep, b"observed session payload " * 16)
    txn = outcome.transaction_id
    spans_text = spans_jsonl(dep.obs.tracer)
    metrics_text = metrics_jsonl(dep.obs.metrics)
    prom_text = prometheus_text(dep.obs.metrics)
    snapshot = dep.obs.metrics.snapshot()
    span_lines = [json.loads(line) for line in spans_text.splitlines()]
    ok = (
        bool(snapshot)
        and bool(span_lines)
        and all("span_id" in d and "trace_id" in d for d in span_lines)
        and dep.obs.tracer.tree_complete(txn)
    )
    print(span_tree_text(dep.obs.tracer, txn))
    print(summary_table(dep.obs.metrics, title=f"Metrics (seed={args.seed!r})"))
    print(render_kv(
        [
            ("transaction", txn),
            ("status", outcome.upload_status.value),
            ("spans", len(span_lines)),
            ("tree complete", dep.obs.tracer.tree_complete(txn)),
            ("metric series", len(snapshot)),
            ("telemetry ok", ok),
        ],
        title="Observability check",
    ))
    if args.dump_dir:
        out = pathlib.Path(args.dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "spans.jsonl").write_text(spans_text)
        (out / "metrics.jsonl").write_text(metrics_text)
        (out / "metrics.prom").write_text(prom_text)
        print(f"\nwrote spans.jsonl, metrics.jsonl, metrics.prom to {out}/")
    return 0 if ok else 1


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Reconstruct one observed session's cross-surface timeline and
    print its dispute dossier, cross-checked against the Arbitrator."""
    if args.max_rows < 0:
        raise ReproError(f"--max-rows must be >= 0 (got {args.max_rows})")
    behavior = ProviderBehavior(
        tamper_mode=TamperMode.FIXUP_MD5 if args.tamper else TamperMode.NONE)
    dep = make_deployment(seed=args.seed.encode(), observe=True, durable=True,
                          behavior=behavior)
    outcome = run_upload(dep, b"forensic session payload " * 8)
    run_download(dep, outcome.transaction_id)
    dossier = dep.dossier(outcome.transaction_id)
    print(dossier.render(arbitrator=dep.arbitrator, max_rows=args.max_rows))
    return 0 if dossier.agrees(dep.arbitrator, "tampering") else 1


def _cmd_replication(args: argparse.Namespace) -> int:
    """One replicated TPNR session with a tampered replica."""
    from .replication import ReplicatedStore, attach_replication

    seed = args.seed.encode()
    dep = make_deployment(seed=seed, observe=True)
    store = attach_replication(dep, ReplicatedStore(seed=seed + b"/store"))
    outcome = run_upload(dep, b"replicated session payload " * 8)
    txn = outcome.transaction_id
    store.tamper_replica(args.replica, "tpnr-data", txn,
                         b"divergent replica copy")
    result = run_download(dep, txn)
    store.audit()
    culprits = sorted({f.replica for f in store.verifier.error_findings()})
    dossier = dep.dossier(txn)
    print(render_kv(
        [
            ("transaction", txn),
            ("replicas", ", ".join(store.replica_names)),
            ("quorum", store.quorum),
            ("tampered replica", args.replica),
            ("download verified", result.verified),
            ("hedged reads", store.hedged_reads),
            ("read repairs", store.read_repairs),
            ("verifier findings",
             "; ".join(f.describe() for f in store.verifier.error_findings())
             or "none"),
            ("dossier findings",
             "; ".join(str(f) for f in dossier.findings) or "none"),
        ],
        title=f"Replicated TPNR session (seed={args.seed!r})",
    ))
    ok = result.verified and args.replica in culprits
    return 0 if ok else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """Run a campaign under the standard SLOs; ``--watch`` renders the
    live dashboard per plan.  Exit status enforces the alerting
    contract (clean runs silent, storms paging, nothing hung)."""
    from .net.faults import CampaignRunner, FaultPlan, generate_storm_plans
    from .obs.dashboard import DashboardFrame, render_frame, top_fault_classes

    if args.plans < 1:
        raise ReproError(f"--plans must be >= 1 (got {args.plans})")
    seed = args.seed.encode()
    if args.profile == "clean":
        plans = [FaultPlan(name=f"s{i:03d}-clean") for i in range(args.plans)]
    else:
        plans = generate_storm_plans(seed, args.plans, profile=args.profile)
    title = f"SLO dashboard — {args.profile} campaign (seed={args.seed!r})"
    # A real terminal gets an in-place refresh; captured output gets
    # one frame per plan, which is also what the CLI tests assert on.
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    outcomes: list = []

    def on_plan(_index: int, outcome) -> None:
        outcomes.append(outcome)
        if not args.watch:
            return
        frame = DashboardFrame(
            title=title,
            now=runner.deployment.sim.now,
            done=len(outcomes),
            total=len(plans),
            statuses=runner.slos.statuses(),
            alerts=list(runner.slos.alerts),
            offenders=top_fault_classes(outcomes),
        )
        print(clear + render_frame(frame))

    runner = CampaignRunner(seed=seed, slo=True, on_plan=on_plan)
    report = runner.run(plans)
    slo_report = report.slo
    burn = slo_report.burn_alerts()
    print(slo_report.table(title=title))
    if slo_report.alerts:
        print()
        print(slo_report.alerts_table())
    expect_silent = args.profile == "clean"
    ok = report.hung_sessions == 0 and (
        len(burn) == 0 if expect_silent else len(burn) >= 1)
    print(f"\n{len(plans)} plans, {report.hung_sessions} hung, "
          f"{len(burn)} burn alert(s); contract "
          f"({'silent' if expect_silent else 'pages'}) "
          f"{'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    """The scenario control plane: list/describe/run."""
    import json

    from .scenarios import canonical_result_json

    if args.action == "list":
        print(render_table(
            ["id", "root seed", "reps", "run_key"],
            [[s.spec.scenario_id, s.spec.root_seed, s.spec.repetitions,
              s.run_key()[:16] + "..."]
             for s in SCENARIOS],
            title="Registered scenarios (run with: python -m repro scenario run <id>)",
        ))
        return 0

    if args.action == "describe":
        scenario = SCENARIOS.get(args.id)
        print(json.dumps(scenario.describe(), indent=2, sort_keys=True))
        return 0

    # run
    scenario = SCENARIOS.get(args.id)
    if args.seed is not None:
        scenario = scenario.reseeded(args.seed)
    result = scenario.run(repetition=args.rep)
    mismatches = scenario.check(result)
    if args.json:
        print(canonical_result_json(result))
    else:
        print(render_table(result.headers, result.rows,
                           title=f"[{result.experiment_id}] {result.title}"))
        if result.notes:
            print(f"Note: {result.notes}")
        print(render_kv(
            [
                ("run_key", result.meta["run_key"]),
                ("seed", result.meta["seed"]),
                ("repetition", result.meta["repetition"]),
                ("seed scheme", result.meta["seed_scheme"]),
                ("contract", f"{len(scenario.spec.expect)} facts expected, "
                             f"{len(mismatches)} broken"),
            ],
            title="Run identity",
        ))
    for mismatch in mismatches:
        print(f"contract broken: {mismatch}", file=sys.stderr)
    return 1 if mismatches else 0


def _write_profile_artifacts(profile, dump_dir: str) -> None:
    """Write ``flamegraph.txt`` / ``profile.jsonl``."""
    import pathlib

    from .obs.profiler import flamegraph_text, profile_jsonl

    out = pathlib.Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "flamegraph.txt").write_text(flamegraph_text(profile))
    (out / "profile.jsonl").write_text(profile_jsonl(profile))
    print(f"wrote flamegraph.txt, profile.jsonl to {out}/")


def _cmd_profile(args: argparse.Namespace) -> int:
    """Deterministic profiler: hot regions / flamegraph / critical path."""
    from .obs.profiler import (
        critical_path,
        flamegraph_text,
        shard_utilization,
        top_regions,
    )

    for flag, value in (("--tenants", args.tenants), ("--shards", args.shards),
                        ("--top", args.top)):
        if value < 1:
            raise ReproError(f"{flag} must be >= 1 (got {value})")
    seed = args.seed.encode()

    if args.critical_path:
        from .net.channel import WAN
        from .obs.exporters import span_tree_text

        dep = make_deployment(seed=seed + b"/critical", observe=True, channel=WAN)
        outcome = run_session(dep, b"profiled critical-path payload " * 8)
        txn = outcome.transaction_id
        path = critical_path(dep.obs.tracer, txn)
        if path is None or not path.stages:
            print("repro profile: the session produced no span tree",
                  file=sys.stderr)
            return 1
        print(span_tree_text(dep.obs.tracer, txn))
        print(render_table(
            ["stage", "start (sim s)", "end (sim s)", "self (sim s)"],
            path.rows(),
            title=f"Critical path of {txn}",
        ))
        print(render_kv(
            [
                ("dominant stage", path.dominant().name),
                ("path length (sim s)", f"{path.length:.6f}"),
                ("measured elapsed (sim s)", f"{path.total:.6f}"),
                ("reconciles", path.reconciles()),
            ],
            title="Critical-path accounting",
        ))
        return 0 if path.reconciles() else 1

    result = run_pool(seed, args.tenants, shards=args.shards, profile=True)
    profile = result.profile
    if args.flamegraph:
        print(flamegraph_text(profile), end="")
    else:
        print(render_table(
            ["region", "calls"],
            [list(row) for row in top_regions(profile, k=args.top)],
            title=f"Hot regions ({args.tenants} tenants, {args.shards} shard(s))",
        ))
        if result.shard_summaries:
            util = shard_utilization(result.shard_summaries)
            print(render_kv(sorted(util.items()), title="Shard utilization"))
    if args.dump_dir:
        _write_profile_artifacts(profile, args.dump_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ICPP/SCC 2010 cloud non-repudiation paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_d = sub.add_parser("demo", help="tamper-detect-arbitrate demo")
    p_d.add_argument("--seed", default="cli", help="determinism seed")
    p_d.set_defaults(func=_cmd_demo)

    p_w = sub.add_parser("workload",
                         help="N tenants x M upload+download sessions on the "
                         "engine pool over a lossy channel")
    p_w.add_argument("--clients", type=int, default=4,
                     help="tenants, one client each (>= 1)")
    p_w.add_argument("--transactions", type=int, default=5,
                     help="sessions per tenant (>= 1)")
    p_w.add_argument("--drop", type=float, default=0.0,
                     help="per-message drop probability, in [0, 1]")
    p_w.add_argument("--seed", default="cli", help="determinism seed")
    p_w.set_defaults(func=_cmd_workload)

    p_o = sub.add_parser("obs", help="run one observed session, dump telemetry")
    p_o.add_argument("--seed", default="cli", help="determinism seed")
    p_o.add_argument("--dump-dir", default="",
                     help="directory for spans.jsonl / metrics.jsonl / metrics.prom")
    p_o.set_defaults(func=_cmd_obs)

    p_f = sub.add_parser("forensics",
                         help="reconstruct one session's timeline and dossier")
    p_f.add_argument("--seed", default="cli", help="determinism seed")
    p_f.add_argument("--tamper", action="store_true",
                     help="use a covertly tampering provider")
    p_f.add_argument("--max-rows", type=int, default=40,
                     help="timeline rows to print in the dossier (>= 0)")
    p_f.set_defaults(func=_cmd_forensics)

    p_r = sub.add_parser("replication",
                         help="one replicated-store session, tampered replica")
    p_r.add_argument("--seed", default="cli", help="determinism seed")
    p_r.add_argument("--replica", default="s3like",
                     choices=["s3like", "azurelike", "gaelike"],
                     help="replica to tamper in the demo")
    p_r.set_defaults(func=_cmd_replication)

    p_sl = sub.add_parser("slo",
                          help="campaign under SLOs with a live dashboard")
    p_sl.add_argument("--seed", default="cli", help="determinism seed")
    p_sl.add_argument("--profile", default="mixed",
                      choices=["clean", "blackout", "delay", "corrupt", "mixed"],
                      help="plan mix: clean control or a storm profile")
    p_sl.add_argument("--plans", type=int, default=12, help="campaign size")
    p_sl.add_argument("--watch", action="store_true",
                      help="render the live dashboard after every plan")
    p_sl.set_defaults(func=_cmd_slo)

    p_p = sub.add_parser("profile",
                         help="deterministic profiler: hot regions / "
                         "flamegraph / critical path")
    p_p.add_argument("--seed", default="cli", help="determinism seed")
    p_p.add_argument("--tenants", type=int, default=8,
                     help="engine tenants for the profiled run")
    p_p.add_argument("--shards", type=int, default=4,
                     help="engine worker shards (>= 1)")
    p_p.add_argument("--top", type=int, default=10,
                     help="hot regions to print in the default mode")
    p_p.add_argument("--flamegraph", action="store_true",
                     help="print the collapsed-stack flamegraph "
                     "(folded format, call-weighted, deterministic)")
    p_p.add_argument("--critical-path", action="store_true",
                     help="extract one observed session's critical path "
                     "and check the self-time accounting reconciles")
    p_p.add_argument("--dump-dir", default="",
                     help="write flamegraph.txt / profile.jsonl here")
    p_p.set_defaults(func=_cmd_profile)

    p_s = sub.add_parser("scenario",
                         help="scenario control plane: list/describe/run")
    s_sub = p_s.add_subparsers(dest="action", required=True)
    s_sub.add_parser("list", help="list registered scenarios with run keys")
    p_sd = s_sub.add_parser("describe", help="canonical spec + derived seeds")
    p_sd.add_argument("id", help="scenario id, e.g. FC1")
    p_sr = s_sub.add_parser("run", help="run a registered scenario")
    p_sr.add_argument("id", help="scenario id, e.g. FC1")
    p_sr.add_argument("--rep", type=int, default=0,
                      help="repetition index (PT-002 derived seed)")
    p_sr.add_argument("--seed", default=None,
                      help="root-seed override (a new run key); default: "
                      "the spec's root seed")
    p_sr.add_argument("--json", action="store_true",
                      help="print the canonical result JSON instead of the table")
    p_s.set_defaults(func=_cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

#!/usr/bin/env python3
"""One epoch delta's life, end to end: the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run builds the daemons and the
generator under .bench_build/. Each run seeds a state directory, restarts
the daemons on it (timed as setup_s), runs an open-loop steady phase and a
capacity phase, drains, checks the outputs, and prints every metric with
its unit. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import copy
import glob
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
DCS_BUILD = os.path.join(BUILD, "dcs")
GEN_BUILD = os.path.join(BUILD, "gen")

HISTORY_SITES = [101, 102, 103]
HISTORY_EPOCHS = 24  # per site: one checkpoint at 64 merges + a journal tail
SITES = [1, 2, 3]
RESTARTS = 3
# Steady epochs per site sealed before the measured window; their freshness
# and per-update cost are not sampled (see gen.cpp, warmup_epochs_).
WARMUP_EPOCHS = 1
LEAF_IDS = [1001, 1002]
# The query server polls the publish directory this often (default 200 ms).
# With the default, the fixed phase between the publisher's timer and the
# watcher's timer, drawn anew in every run, moves answer_age_p50_ms by up
# to a watch period from run to run.
QUERY_WATCH_MS = 10

DENSE = dict(pairs=20000, complete_permille=850, flood=12288, onset=3,
             dests=8192, zipf=0.6, period_ms=750, chunks=16,
             capacity_epochs=6, capacity_rounds=4)
SPARSE = dict(pairs=48, complete_permille=850, flood=24, onset=3,
              dests=8192, zipf=0.6, period_ms=750, chunks=1,
              capacity_epochs=9, capacity_rounds=4)
WORKLOADS = {
    "dense_durable": dict(DENSE, federated=False, read_rate=20.0,
                          publish_every_ms=None),
    "sparse_federated": dict(SPARSE, federated=True, read_rate=20.0,
                             publish_every_ms=None, min_absolute=32),
    "reads_under_ingest": dict(DENSE, federated=False, read_rate=40.0,
                               publish_every_ms=100),
}

END_TO_END = [
    ("setup_s", "s"), ("deltas_per_s", "1/s"), ("cpu_ms_per_delta", "ms"),
    ("freshness_p50_ms", "ms"), ("freshness_tail_ms", "ms"),
    ("agent_ns_per_update", "ns"), ("wire_kib_per_delta", "KiB"),
    ("peak_rss_mib", "MiB"), ("answer_age_p50_ms", "ms"),
]
# Printed for reference but left out of the result: see README.md, "What
# was left out".
INFORMATIONAL = [("topk_page_p50_ms", "ms"), ("topk_page_tail_ms", "ms")]


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------------

def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logfile) as f:
            tail = f.read()[-4000:]
        raise RuntimeError("build step failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    """Build the daemons (the repository's own CMake project, tests, benches
    and examples off) and then the generator against its libraries."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to the benchmark")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(DCS_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", DCS_BUILD,
                    "-DDCS_BUILD_TESTS=OFF", "-DDCS_BUILD_BENCH=OFF",
                    "-DDCS_BUILD_EXAMPLES=OFF"], logfile)
    run_logged(["cmake", "--build", DCS_BUILD, "-j", jobs], logfile)
    if not os.path.exists(os.path.join(GEN_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", GEN_BUILD,
                    "-DDCS_SOURCE_DIR=" + ROOT,
                    "-DDCS_BUILD_DIR=" + DCS_BUILD], logfile)
    run_logged(["cmake", "--build", GEN_BUILD, "-j", jobs], logfile)


def tool(name):
    return os.path.join(DCS_BUILD, "tools", name)


# --- orchestration ---------------------------------------------------------------

def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def call_group(cmd, timeout):
    """Run cmd in its own process group; on timeout, kill the group (the
    generator and every daemon it started) and wait for it."""
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s timed out" % os.path.basename(cmd[0]))
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def write_spec(path, settings, daemons=(), shard_maps=()):
    lines = []
    for key, value in settings.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        lines.append("\t".join([key] + [str(v) for v in values]))
    for restart, role, port_file, ops_file, argv in daemons:
        lines.append("\t".join(["daemon", str(restart), role, port_file,
                                ops_file] + argv))
    for restart, path_ in shard_maps:
        lines.append("\t".join(["shard_map", str(restart), path_]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def traffic_settings(cfg, seed):
    return {k: cfg[k] for k in ("pairs", "complete_permille", "flood",
                                "onset", "dests", "zipf")} | {"seed": seed}


def seed_state(run_dir, cfg, seed, gen):
    """Untimed: ship the history of the seeding sites to a collector, which
    the generator kills once it has published, leaving a checkpoint, a
    journal tail and published generations."""
    d = os.path.join(run_dir, "seed")
    os.makedirs(d)
    state = os.path.join(d, "state")
    publish = os.path.join(d, "publish")
    port_file = os.path.join(d, "collector.port")
    spec = os.path.join(d, "spec.tsv")
    write_spec(spec, traffic_settings(cfg, seed) | {
        "dir": d, "publish_dir": publish, "history_sites": HISTORY_SITES,
        "history_epochs": HISTORY_EPOCHS},
        daemons=[(0, "collector", port_file, "-", [
            tool("dcs_collector"), "--port", "0", "--port-file", port_file,
            "--sites", "99", "--timeout-ms", "600000", "--state-dir", state,
            "--publish-dir", publish])])
    if call_group([gen, "seed", spec], timeout=170) != 0:
        raise RuntimeError("seeding failed")
    return state, publish


def daemon_sets(run_dir, cfg, seed_dir, seed_publish):
    """Per restart: fresh copies of the seeded state, ports and argv."""
    daemons, shard_maps = [], []
    for r in range(RESTARTS):
        d = os.path.join(run_dir, "r%d" % r)
        os.makedirs(d)
        state = os.path.join(d, "state")
        publish = os.path.join(d, "publish")
        shutil.copytree(seed_dir, state)
        shutil.copytree(seed_publish, publish)

        def files(role):
            return (os.path.join(d, role + ".port"),
                    os.path.join(d, role + ".ops"))
        common = ["--timeout-ms", "600000"]
        if cfg.get("min_absolute"):
            common += ["--min-absolute", str(cfg["min_absolute"])]
        if not cfg["federated"]:
            port_file, ops_file = files("collector")
            argv = [tool("dcs_collector"), "--port", "0", "--port-file",
                    port_file, "--ops-port", "0", "--ops-port-file", ops_file,
                    # Every agent says Bye once: in the steady phase, then in
                    # each capacity round.
                    "--sites", str((1 + cfg["capacity_rounds"]) * len(SITES)),
                    "--state-dir", state,
                    "--publish-dir", publish] + common
            if cfg["publish_every_ms"]:
                argv += ["--publish-every-ms", str(cfg["publish_every_ms"])]
            daemons.append((r, "collector", port_file, ops_file, argv))
        else:
            root_port = free_port()
            leaf_ports = [free_port() for _ in LEAF_IDS]
            map_path = os.path.join(d, "shard.map")
            subprocess.run(
                [tool("dcs_shardmap"), "gen", "--version", "1", "--leaves",
                 ",".join("%d:127.0.0.1:%d" % (i, p)
                          for i, p in zip(LEAF_IDS, leaf_ports)),
                 "--out", map_path], check=True, capture_output=True)
            shard_maps.append((r, map_path))
            port_file, ops_file = files("root")
            daemons.append((r, "root", port_file, ops_file, [
                tool("dcs_root"), "--port", str(root_port), "--port-file",
                port_file, "--ops-port", "0", "--ops-port-file", ops_file,
                "--leaves", str(len(LEAF_IDS)), "--state-dir", state,
                "--publish-dir", publish] + common))
            for i, (leaf_id, leaf_port) in enumerate(zip(LEAF_IDS,
                                                         leaf_ports)):
                # The generator appends --sites: the number of Byes a leaf
                # waits for follows the sites the shard map homes on it.
                role = "leaf%d" % (i + 1)
                port_file, ops_file = files(role)
                daemons.append((r, role, port_file, ops_file, [
                    tool("dcs_collector"), "--leaf-id", str(leaf_id),
                    "--port", str(leaf_port), "--port-file", port_file,
                    "--ops-port", "0", "--ops-port-file", ops_file,
                    "--root", "127.0.0.1:%d" % root_port,
                    "--shard-map", map_path,
                    "--state-dir", os.path.join(d, role)] + common))
        port_file = os.path.join(d, "query.port")
        daemons.append((r, "query", port_file, "-", [
            tool("dcs_query_server"), "--publish-dir", publish, "--port", "0",
            "--port-file", port_file, "--watch-every-ms",
            str(QUERY_WATCH_MS)]))
    return daemons, shard_maps


# --- metrics -------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return float("nan")
    return ordered[len(ordered) - 11]


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def detector_stamps(run_dir):
    stamps = {}
    for path in glob.glob(os.path.join(run_dir, "traces-*.json")):
        with open(path) as f:
            try:
                traces = json.load(f)
            except ValueError:
                continue
        for t in traces:
            stamp = t.get("stages", {}).get("detector_evaluated")
            if stamp:
                stamps[(t["site_id"], t["epoch"])] = stamp
    return stamps


def parse_prom(path):
    samples = {}
    if not os.path.exists(path):
        return samples
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                samples[name] = float(value)
            except ValueError:
                pass
    return samples


def prom_sum(scrapes, name):
    return sum(s.get(name, 0.0) for s in scrapes)


def hist_mean(scrapes, name, labels=""):
    total = prom_sum(scrapes, name + "_sum" + labels)
    count = prom_sum(scrapes, name + "_count" + labels)
    return total / count if count else float("nan")


# --- checks ----------------------------------------------------------------------

def check_ledger(facts):
    """Exactly-once: every sealed epoch merged once, nothing dropped, and no
    pending gaps. Returns the number of epochs that failed."""
    merged = {e["site"]: e for e in facts["merged_ledger"]}
    failed = 0
    for site, epochs in facts["expected"].items():
        entry = merged.get(site)
        if (entry is None or entry["epochs_merged"] != len(epochs)
                or entry["last_epoch"] != max(epochs)
                or entry["dropped"] != 0
                or sorted(epochs) != list(range(1, len(epochs) + 1))):
            failed += max(1, abs(len(epochs) -
                                 (entry["epochs_merged"] if entry else 0)))
    failed += facts["pending_gaps"]
    if not facts["agents_clean"]:
        failed = max(failed, 1)
    return failed


def check_ground_truth(facts):
    """The flooded destination is rank 1 on the last /topk, it is the exact
    rank 1, and its estimate is within epsilon of its exact count."""
    topk = facts["final_topk"]
    exact = facts["exact_top"]
    if not topk or not exact:
        return False
    group, estimate = topk[0]
    exact_group, exact_count = exact[0]
    return (group == facts["flood_dest"] == exact_group and
            abs(estimate - exact_count) <= facts["epsilon"] * exact_count)


def check_detection(facts):
    """/alerts raises the flooded destination, never before the onset."""
    raised = [a for a in facts["alerts"] if a["kind"] == "raised" and
              a["subject"] == facts["flood_dest"]]
    return bool(raised) and all(a["epoch"] >= facts["first_flood_check"]
                                for a in raised)


def check_reads(pages):
    """Every page answered; its epoch watermark never goes backwards.
    Returns the number of failed reads."""
    failed, last = 0, 0
    for page in pages:
        if not page["ok"] or page["watermark"] < last:
            failed += 1
        last = max(last, page["watermark"])
    return failed


def run_checks(facts, pages):
    """All checks, and each check again on a deliberately wrong input, which
    it must reject."""
    epochs_failed = check_ledger(facts)
    reads_failed = check_reads(pages)
    results = {
        "exactly_once": epochs_failed == 0,
        "linearity": facts["linear"],
        "ground_truth": check_ground_truth(facts),
        "detection": check_detection(facts),
        "reads": reads_failed == 0,
    }
    selftest = {"linearity_flipped_counter": facts["linear_selftest_caught"]}
    # Each wrong input is a deep copy that differs from the run's input by
    # the one fault alone; the ledger check must count more failed epochs
    # on it than on the unchanged copy.
    wrong = copy.deepcopy(facts)
    if wrong["merged_ledger"]:
        entry = max(wrong["merged_ledger"], key=lambda e: e["epochs_merged"])
        entry["epochs_merged"] -= 1  # one epoch below the last went missing
    selftest["ledger_withheld_epoch"] = (
        check_ledger(wrong) > check_ledger(copy.deepcopy(facts)))
    wrong = copy.deepcopy(facts)
    if len(wrong["exact_top"]) > 1 and wrong["final_topk"]:
        wrong["final_topk"][0][0] = wrong["exact_top"][1][0]
    selftest["wrong_rank1"] = not check_ground_truth(wrong)
    wrong = copy.deepcopy(facts)
    for alert in wrong["alerts"]:
        alert["epoch"] = facts["first_flood_check"] - 1
    selftest["early_alert"] = not check_detection(wrong)
    if len(pages) >= 2:
        wrong_pages = copy.deepcopy(pages)
        wrong_pages[-1]["watermark"] = wrong_pages[-2]["watermark"] - 1
        wrong_pages[-1]["ok"] = True
        selftest["watermark_backwards"] = check_reads(wrong_pages) > 0
    return results, selftest, epochs_failed, reads_failed


def facts_from(gen, healthz):
    expected = {}
    for site in gen["history_sites"]:
        expected[site] = list(range(1, gen["history_epochs"] + 1))
    for site in gen["sites"]:
        expected[site] = list(range(1, gen["steady_epochs"] +
                                    gen["capacity_epochs"] + 1))
    topk_body = gen["final_topk"]
    final_topk = [[m.group(1), int(m.group(2))] for m in re.finditer(
        r'"group": "([0-9a-f]{8})", "estimate": (\d+)', topk_body)]
    alerts = [{"kind": m.group(1), "subject": m.group(2),
               "epoch": int(m.group(3))} for m in re.finditer(
        r'\{"kind":"(\w+)","\w+":"([0-9a-f]{8})".*?"epoch":(\d+)',
        gen["final_alerts"])]
    return {
        "expected": expected,
        "merged_ledger": gen["merged_ledger"],
        "pending_gaps": healthz.get("pending_gap_epochs", 0),
        "agents_clean": gen["agents_clean"],
        "linear": gen["linear"],
        "linear_selftest_caught": gen["linear_selftest_caught"],
        "final_topk": final_topk,
        "exact_top": gen["exact_top"],
        "flood_dest": gen["flood_dest"],
        "epsilon": gen["epsilon"],
        "alerts": alerts,
        # The detector counts one check per merge; no flood epoch can merge
        # before the history and the first onset-1 epochs of a site.
        "first_flood_check": len(gen["history_sites"]) *
        gen["history_epochs"] + gen["onset"],
    }


def page_rows(gen):
    return [{"due": p[0], "done": p[1], "done_unix": p[2], "ok": bool(p[3]),
             "generation": p[4], "watermark": p[5], "published": p[6],
             "topk_us": p[7], "frequency_us": p[8]} for p in gen["pages"]]


def end_to_end(gen, run_dir):
    stamps = detector_stamps(run_dir)
    fresh = []
    missing = 0
    for site, epoch, due, root_merged in gen["seals"]:
        stamp = root_merged or stamps.get((site, epoch))
        if stamp is None:
            missing += 1
        elif epoch > WARMUP_EPOCHS:
            fresh.append((stamp - due) / 1e6)
    # One sample per seal, in seal order.
    agent_ns = [ns for seal, ns in zip(gen["seals"], gen["agent_ns_per_update"])
                if seal[1] > WARMUP_EPOCHS]
    pages = [p for p in page_rows(gen) if p["ok"]]
    page_ms = [(p["done"] - p["due"]) / 1e6 for p in pages]
    age_ms = [(p["done_unix"] - p["published"]) / 1e6 for p in pages]
    round_deltas = len(gen["sites"]) * gen["capacity_round_epochs"]
    values = {
        "setup_s": median(gen["setup_s"]),
        "deltas_per_s": median([round_deltas / s
                                for s in gen["capacity_round_s"]]),
        "cpu_ms_per_delta": median([1000.0 * sum(cpu.values()) / round_deltas
                                    for cpu in gen["capacity_round_cpu_s"]]),
        "freshness_p50_ms": median(fresh),
        "freshness_tail_ms": tail(fresh),
        "agent_ns_per_update": median(agent_ns),
        "wire_kib_per_delta": gen["wire_kib_per_delta"],
        "peak_rss_mib": gen["peak_rss_kib_total"] / 1024.0,
        "topk_page_p50_ms": median(page_ms),
        "topk_page_tail_ms": tail(page_ms),
        "answer_age_p50_ms": median(age_ms),
    }
    return values, missing


def per_layer(gen, run_dir, cfg):
    def scrapes(phase, prefix):
        return [parse_prom(p) for p in sorted(glob.glob(os.path.join(
            run_dir, "scrape-%s-%s*.prom" % (phase, prefix))))]
    federated = cfg["federated"]
    # dcs_collector processes: the one collector, or the two leaves.
    ingest_tier = "leaf" if federated else "collector"
    detect_tier = "root" if federated else "collector"
    steady_ingest = scrapes("steady", ingest_tier)
    cap_ingest = scrapes("capacity", ingest_tier)
    cap_detect = scrapes("capacity", detect_tier)
    cap_all = cap_ingest + (cap_detect if federated else [])
    steady_query = scrapes("steady", "query")
    steady_gen = scrapes("steady", "generator")
    capacity_deltas = len(gen["sites"]) * gen["capacity_epochs"]
    rounds = gen["capacity_round_cpu_s"]
    # The ingest tier: the one collector, or the two leaves.
    leaf_cpu = sum(v for cpu in rounds for k, v in cpu.items()
                   if k not in ("root", "query"))
    root_cpu = sum(cpu.get("root", 0.0) for cpu in rounds) or leaf_cpu

    def stage_ms(stage):
        return hist_mean(steady_ingest, "dcs_trace_stage_ns",
                         '{stage="%s"}' % stage) / 1e6

    hits = prom_sum(steady_query, "dcs_query_cache_hits_total")
    misses = prom_sum(steady_query, "dcs_query_cache_misses_total")
    # Deltas that arrived over the wire: journal records replayed at the
    # restart are merged (and counted) without a frame or a fsync.
    def live_deltas(scraped):
        return (prom_sum(scraped, "dcs_collector_deltas_total") -
                prom_sum(scraped, "dcs_checkpoint_replayed_epochs_total"))
    ingest_deltas = live_deltas(cap_ingest)
    detect_deltas = live_deltas(cap_detect)
    pages = page_rows(gen)
    late = sorted(gen["late_ms"])
    return {
        "agent.ingest_ns": ("ns", gen["agent_ingest_ns"]),
        "agent.seal_ms": ("ms", mean(gen["seal_ms"])),
        "agent.ship_wait_ms": ("ms", mean(gen["ship_wait_ms"])),
        "agent.heartbeat_rtt_us": ("us", hist_mean(
            steady_gen, "dcs_agent_heartbeat_rtt_ns") / 1e3),
        "sketch.serialize_ms": ("ms", gen["replay_serialize_ms"]),
        "sketch.deserialize_ms": ("ms", gen["replay_deserialize_ms"]),
        "serialize.crc_ms": ("ms", gen["replay_crc_ms"]),
        "sketch.levels_per_delta": ("count", gen["replay_levels"]),
        "tracking.merge_ms": ("ms", gen["replay_merge_ms"]),
        "wire.encode_ms": ("ms", gen["replay_wire_encode_ms"]),
        "wire.decode_ms": ("ms", gen["replay_wire_decode_ms"]),
        "wire.frames_per_delta": ("count", prom_sum(
            cap_ingest, "dcs_collector_frames_total") / ingest_deltas),
        "collector.receive_ms": ("ms", stage_ms("received")),
        "collector.admit_ms": ("ms", stage_ms("admitted")),
        "collector.journal_ms": ("ms", stage_ms("journaled")),
        "collector.merge_ms": ("ms", stage_ms("merged")),
        "collector.detect_ms": ("ms", stage_ms("detector_evaluated")),
        "leaf.cpu_ms_per_delta": ("ms", 1000.0 * leaf_cpu / capacity_deltas),
        "root.cpu_ms_per_delta": ("ms", 1000.0 * root_cpu / capacity_deltas),
        "journal.append_ms": ("ms", gen["replay_journal_append_ms"]),
        "journal.fsync_ms": ("ms", hist_mean(
            cap_ingest, "dcs_checkpoint_fsync_latency_ns") / 1e6),
        "journal.fsyncs_per_delta": ("count", (prom_sum(
            cap_ingest, "dcs_checkpoint_fsync_latency_ns_count") - prom_sum(
            cap_ingest, "dcs_checkpoint_generations_total")) / ingest_deltas),
        "checkpoint.write_ms": ("ms", hist_mean(
            cap_all, "dcs_checkpoint_write_latency_ns") / 1e6),
        "checkpoint.kib_per_delta": ("KiB", prom_sum(
            cap_all, "dcs_checkpoint_bytes_written_total") / 1024.0 /
            (ingest_deltas + (detect_deltas if federated else 0))),
        "recovery.load_ms": ("ms", gen["replay_recovery_load_ms"]),
        "recovery.replay_ms_per_record": (
            "ms", gen["replay_recovery_ms_per_record"]),
        "federation.relay_ms": ("ms", gen["replay_relay_ms"]),
        "federation.uplink_spool_max": ("count", gen["uplink_spool_max"]),
        "detector.observe_us": ("us", gen["replay_observe_us"]),
        "query.encode_ms": ("ms", gen["replay_query_encode_ms"]),
        "query.kib_per_generation": ("KiB", prom_sum(
            cap_detect, "dcs_query_published_bytes_total") / 1024.0 /
            max(1.0, prom_sum(cap_detect,
                              "dcs_query_published_generations_total"))),
        "query.load_ms": ("ms", hist_mean(
            steady_query, "dcs_query_snapshot_load_ns") / 1e6),
        "query.topk_us": ("us", mean([p["topk_us"] for p in pages])),
        "query.frequency_us": ("us", mean([p["frequency_us"] for p in pages])),
        "query.cache_hit_share": ("share", hits / (hits + misses)
                                  if hits + misses else float("nan")),
        "generator.late_p99_ms": ("ms", late[int(0.99 * (len(late) - 1))]
                                  if late else float("nan")),
    }


# --- one run ---------------------------------------------------------------------

def run(args):
    cfg = WORKLOADS[args.workload]
    build()
    gen = os.path.join(GEN_BUILD, "perfbench_gen")
    run_dir = os.path.join(BUILD, "runs", "%s-s%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        started = time.monotonic()
        seed_dir, seed_publish = seed_state(run_dir, cfg, args.seed, gen)
        log("perfbench: seeded in %.2f s" % (time.monotonic() - started))
        daemons, shard_maps = daemon_sets(run_dir, cfg, seed_dir,
                                          seed_publish)
        final = os.path.join(run_dir, "r%d" % (RESTARTS - 1))
        detect_state = os.path.join(final, "state")
        spec = os.path.join(run_dir, "spec.tsv")
        write_spec(spec, traffic_settings(cfg, args.seed) | {
            "dir": run_dir, "seconds": args.seconds, "trace": args.trace,
            "sites": SITES, "history_sites": HISTORY_SITES,
            "history_epochs": HISTORY_EPOCHS, "restarts": RESTARTS,
            "warmup_epochs": WARMUP_EPOCHS,
            "period_ms": cfg["period_ms"], "chunks": cfg["chunks"],
            "read_rate": cfg["read_rate"],
            "capacity_epochs": cfg["capacity_epochs"],
            "capacity_rounds": cfg["capacity_rounds"],
            "detect_role": "root" if cfg["federated"] else "collector",
            "detect_state_dir": detect_state, "seed_state_dir": seed_dir,
            "publish_dir": os.path.join(final, "publish")},
            daemons, shard_maps)
        rc = call_group([gen, "run", spec], timeout=170)
        if rc != 0:
            raise RuntimeError("generator failed with code %d" % rc)
        with open(os.path.join(run_dir, "gen_result.json")) as f:
            result = json.load(f)
        return report(args, cfg, result, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, cfg, gen, run_dir):
    try:
        healthz = json.loads(gen["detect_healthz"])
    except ValueError:
        healthz = {}
    facts = facts_from(gen, healthz)
    pages = page_rows(gen)
    results, selftest, epochs_failed, reads_failed = run_checks(facts, pages)
    values, missing = end_to_end(gen, run_dir)
    epochs_failed += missing
    epochs = sum(len(v) for v in facts["expected"].values())
    correct = (all(results.values()) and all(selftest.values()) and
               gen["daemons_clean_exit"] and gen["final_read_ok"])

    for name, ok in results.items():
        print("check %-14s %s" % (name, "ok" if ok else "FAILED"))
    for name, caught in selftest.items():
        print("self-test %-26s %s" % (name, "rejected" if caught
                                      else "NOT REJECTED"))
    print("epochs attempted=%d failed=%d" % (epochs, epochs_failed))
    print("reads attempted=%d failed=%d" % (len(pages), reads_failed))
    for name, unit in END_TO_END + INFORMATIONAL:
        print("%-32s %14.6g %s" % (name, values[name], unit))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (unit, value)
                   in per_layer(gen, run_dir, cfg).items()}
        for name, m in metrics.items():
            print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    bad = [n for n, m in metrics.items() if m["value"] != m["value"]]
    if bad:
        print("metrics without samples: " + ", ".join(bad))
        correct = False
    print(json.dumps({"correct": bool(correct),
                      "attempted": epochs + len(pages),
                      "failed": epochs_failed + reads_failed,
                      "metrics": metrics}))
    return 0


def self_test():
    """The checker rejects each deliberately wrong input (no daemons)."""
    facts = {
        "expected": {1: [1, 2, 3]},
        "merged_ledger": [{"site": 1, "last_epoch": 3, "epochs_merged": 3,
                           "dropped": 0}],
        "pending_gaps": 0, "agents_clean": True, "linear": True,
        "linear_selftest_caught": True,
        "final_topk": [["0000beef", 1000], ["00000001", 10]],
        "exact_top": [["0000beef", 1100], ["00000001", 12]],
        "flood_dest": "0000beef", "epsilon": 0.25,
        "alerts": [{"kind": "raised", "subject": "0000beef", "epoch": 9}],
        "first_flood_check": 5,
    }
    pages = [{"ok": True, "watermark": w} for w in (1, 2, 2, 5)]
    results, selftest, _, _ = run_checks(facts, pages)
    for name, ok in results.items():
        print("check %-14s %s" % (name, "ok" if ok else "FAILED"))
    for name, caught in selftest.items():
        print("self-test %-26s %s" % (name, "rejected" if caught
                                      else "NOT REJECTED"))
    return 0 if all(results.values()) and all(selftest.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            KeyError, ValueError) as error:
        log("perfbench: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())

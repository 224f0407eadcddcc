"""Outside-in benchmark of roadcount: three workloads, each in fresh processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all          # every workload once, a table of metrics
    python3 perfbench/run.py --remake       # render the scenes and train the model anew

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. Inputs (two rendered scenes and the cascade the count
workload uses) are made on first use into .perfbench_cache/, keyed by a hash
of src/ and of this directory, and reused after. With --trace 0 the last
line of stdout is one JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced round. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CACHE = os.path.join(ROOT, ".perfbench_cache")

SETUP_STARTS = 3  # fresh starts per run for setup_s, after one discarded warm-up
MIN_ROUNDS = 2
RUN_BUDGET_S = 150.0  # no new round starts after this much of a run
PREPARE_TIMEOUT_S = 600.0
CHILD_TIMEOUT_S = 120.0
STEP_GT = 104
TEN_GT = 10

LAYERS = ("imaging", "features", "boostcascade", "bgsub", "tracking", "counting", "synthgen")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MiB",
    "acc_real": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a crashed input step)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(args: list[str], log_path: str, timeout: float):
    """Run child.py to its end; returns (exit code, its own resource usage)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, CHILD] + args, cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _log_tail(path: str, lines: int = 15) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def _source_key() -> str:
    """Hash of the program and of the input recipe: inputs are remade when either changes."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, "child.py"), os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, name) for name in sorted(filenames) if name.endswith(".py")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def prepare_inputs(seeds: tuple[int, int], remake: bool = False) -> str:
    """Directory with both scenes and the cached model, made if missing."""
    if not os.path.isfile(os.path.join(SRC, "roadcount", "cli.py")):
        raise BenchError(f"no roadcount sources under {SRC}")
    key = _source_key()
    inputs = os.path.join(CACHE, f"inputs-{key}-s{seeds[0]}-b{seeds[1]}")
    if remake and os.path.isdir(inputs):
        shutil.rmtree(inputs)
    if os.path.isdir(inputs):
        return inputs
    os.makedirs(CACHE, exist_ok=True)
    for name in os.listdir(CACHE):  # inputs made by other sources are stale
        if name.startswith("inputs-") and not name.startswith(f"inputs-{key}-"):
            shutil.rmtree(os.path.join(CACHE, name), ignore_errors=True)
    tmp = os.path.join(CACHE, f"tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    log = tmp + ".log"
    code, _ = spawn(["prepare", "--inputs", tmp, "--seeds", f"{seeds[0]},{seeds[1]}"],
                    log, PREPARE_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"making the inputs failed ({code}):\n{_log_tail(log)}")
    os.remove(log)
    try:
        os.rename(tmp, inputs)
    except OSError:  # another run made them meanwhile
        if not os.path.isdir(inputs):
            raise
        shutil.rmtree(tmp)
    return inputs


def _warm_file_cache(inputs: str) -> None:
    for dirpath, _, filenames in os.walk(inputs):
        for name in filenames:
            with open(os.path.join(dirpath, name), "rb") as fh:
                fh.read()


def _check_inputs(inputs: str) -> list[str]:
    return (check.check_ground_truth(os.path.join(inputs, workloads.STEP_SCENE), STEP_GT)
            + check.check_ground_truth(os.path.join(inputs, workloads.TEN_SCENE), TEN_GT))


def _scene_frames(inputs: str, scene: str) -> int:
    return check.read_scenario(os.path.join(inputs, scene))["frames"]


def setup_seconds(workload: str, inputs: str, work: str) -> float:
    """Median time from process start to the end of set-up, over fresh starts."""
    samples = []
    result = os.path.join(work, "probe.json")
    for attempt in range(SETUP_STARTS + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        code, _ = spawn(["probe", "--workload", workload, "--inputs", inputs,
                         "--work", work, "--result", result],
                        os.path.join(work, "probe.log"), CHILD_TIMEOUT_S)
        if code != 0:
            log = _log_tail(os.path.join(work, "probe.log"))
            raise BenchError(f"set-up probe failed ({code}):\n{log}")
        with open(result, encoding="ascii") as fh:
            ready = json.load(fh)["ready"]
        if attempt > 0:  # the first start compiles .pyc files and fills caches
            samples.append(ready - start)
    return statistics.median(samples)


class Round:
    """One fresh-process round of a workload, with its checked outputs."""

    def __init__(self, workload: str, inputs: str, work: str, trace: bool):
        self.workload = workload
        os.makedirs(work)
        result = os.path.join(work, "round.json")
        log = os.path.join(work, "round.log")
        args = ["round", "--workload", workload, "--inputs", inputs,
                "--work", work, "--result", result]
        code, usage = spawn(args + (["--trace"] if trace else []), log, CHILD_TIMEOUT_S)
        self.usage = usage
        self.record = {}
        if code == 0:
            with open(result, encoding="ascii") as fh:
                self.record = json.load(fh)
        self.ok = code == 0 and self.record.get("rc") == 0
        if not self.ok:
            print(f"{workload}: round failed (exit {code}, rc {self.record.get('rc')}):\n"
                  f"{_log_tail(log)}", file=sys.stderr)
        self.problems: list[str] = []
        self.acc = None
        if self.ok:
            self._check(inputs, work)

    def _check(self, inputs: str, work: str) -> None:
        out = self.record["stdout"]
        if self.workload == workloads.COUNT:
            self.problems, self.acc = check.check_count(
                out, os.path.join(work, "events.txt"),
                os.path.join(inputs, workloads.STEP_SCENE), workloads.MATCH_TOL)
        elif self.workload == workloads.SWEEP:
            self.problems, self.acc = check.check_sweep(out, workloads.GRID, STEP_GT)
        else:
            with open(os.path.join(inputs, workloads.MODEL), "rb") as fh:
                reference = fh.read()
            self.problems = check.check_model(
                os.path.join(work, workloads.MODEL), self.record["reloaded_stumps"], reference)
            if self.record["check_rc"] != 0:
                self.problems.append(
                    f"counting with the fresh model failed ({self.record['check_rc']})")
                return
            problems, self.acc = check.check_count(
                self.record["check_stdout"], os.path.join(work, "ten_events.txt"),
                os.path.join(inputs, workloads.TEN_SCENE), workloads.MATCH_TOL)
            self.problems += problems
            if self.acc is not None and self.acc < check.MIN_ACCURACY:
                self.problems.append(
                    f"fresh model counts the ten-vehicle scene at {self.acc:.2f} %")
        for problem in self.problems:
            print(f"{self.workload}: CHECK FAILED: {problem}", file=sys.stderr)

    @property
    def run_s(self) -> float:
        return self.record["run_s"]


def operations(workload: str, inputs: str) -> int:
    """Operations one round attempts: frames, grid points, or one training."""
    if workload == workloads.COUNT:
        return _scene_frames(inputs, workloads.STEP_SCENE)
    return workloads.grid_points() if workload == workloads.SWEEP else 1


def frames_per_round(workload: str, inputs: str) -> int:
    """Scene frames one round passes over (training: the scene it learns from)."""
    if workload == workloads.TRAIN:
        return _scene_frames(inputs, workloads.TEN_SCENE)
    passes = workloads.grid_points() if workload == workloads.SWEEP else 1
    return passes * _scene_frames(inputs, workloads.STEP_SCENE)


def end_to_end(workload: str, inputs: str, work: str, seconds: float, started: float):
    setup = setup_seconds(workload, inputs, work)
    frames = frames_per_round(workload, inputs)
    rounds: list[Round] = []
    t0 = time.monotonic()
    while True:
        rounds.append(Round(workload, inputs, os.path.join(work, f"round{len(rounds)}"), False))
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(rounds)
        if len(rounds) >= MIN_ROUNDS and (
            elapsed + per_round > seconds
            or time.monotonic() - started + per_round > RUN_BUDGET_S
        ):
            break
    good = [r for r in rounds if r.ok]
    if not good:
        raise BenchError(f"every round of {workload} failed")
    metrics = {
        "setup_s": setup,
        "run_s": statistics.median(r.run_s for r in good),
        "frames_per_s": statistics.median(frames / r.run_s for r in good),
        "peak_rss_mb": statistics.median(r.usage.ru_maxrss / 1024.0 for r in good),
        "acc_real": statistics.median(r.acc if r.acc is not None else 0.0 for r in good),
    }
    return rounds, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def _per_call_ms(stats: dict, key: str) -> float:
    s = stats.get(key)
    return 1000.0 * s["busy"] / s["calls"] if s and s["calls"] else 0.0


def layer_metrics(stats: dict, call_cost: float, traced_run_s: float, untraced: Round) -> dict:
    """Per-layer metrics of one traced round, and process usage of the untraced one."""
    def get(key, field):
        return stats[key][field] if key in stats else 0

    detect = stats.get("boostcascade.detect") or {"durations": [], "self_times": []}
    durations = [1000.0 * d for d in detect["durations"]]
    decodes = get("imaging.load_pgm", "calls")
    decode_s = get("imaging.load_pgm", "busy") + get("imaging.downscale", "busy")
    covered = sum(s["outer_busy"] for s in stats.values())
    m = {
        "imaging.decode_ms": (1000.0 * decode_s / decodes if decodes else 0.0, "ms"),
        "imaging.integral_ms": (_per_call_ms(stats, "imaging.integral"), "ms"),
        "features.code_map_ms": (_per_call_ms(stats, "features.mb_lbp_code_map"), "ms"),
        "features.code_map_calls": (get("features.mb_lbp_code_map", "calls"), "count"),
        "features.histogram_calls": (get("features.mb_lbp_histogram", "calls"), "count"),
        "features.rank_table_s": (get("features.build_rank_table", "busy"), "s"),
        "boostcascade.detect_ms_p50": (statistics.median(durations) if durations else 0.0, "ms"),
        "boostcascade.detect_ms_p99": (statistics.quantiles(durations, n=100)[98]
                                       if len(durations) > 1 else 0.0, "ms"),
        "boostcascade.detect_self_ms": (1000.0 * statistics.fmean(detect["self_times"])
                                        if detect["self_times"] else 0.0, "ms"),
        "boostcascade.detections": (get("boostcascade.detect", "results"), "count"),
        "boostcascade.window_features_s": (get("boostcascade.window_features", "busy"), "s"),
        "boostcascade.train_strong_s": (get("boostcascade.train_strong", "busy"), "s"),
        "boostcascade.strong_classify_calls": (
            get("boostcascade.strong_classify", "calls"), "count"),
        "boostcascade.calibrate_s": (get("boostcascade.calibrate_stage", "busy"), "s"),
        "bgsub.subtract_ms": (_per_call_ms(stats, "bgsub.subtract"), "ms"),
        "bgsub.open_ms": (_per_call_ms(stats, "bgsub.morphological_open"), "ms"),
        "bgsub.label_ms": (_per_call_ms(stats, "bgsub.extract_blobs"), "ms"),
        "bgsub.update_ms": (_per_call_ms(stats, "bgsub.update_background"), "ms"),
        "bgsub.blobs": (get("bgsub.extract_blobs", "results"), "count"),
        "tracking.step_ms": (_per_call_ms(stats, "tracking.Tracker.step"), "ms"),
        "tracking.tracks_finished": (get("tracking.Tracker.step", "results")
                                     + get("tracking.Tracker.flush", "results"), "count"),
        "counting.should_count_calls": (get("counting.should_count", "calls"), "count"),
        "counting.counted": (get("counting.should_count", "results"), "count"),
        "synthgen.render_calls": (get("synthgen.generate_scene", "calls"), "count"),
        "synthgen.training_set_s": (get("synthgen.generate_training_set", "busy"), "s"),
        "cli.pipeline_passes": (get("tracking.Tracker.__init__", "calls"), "count"),
        "cli.frames_decoded": (decodes, "count"),
        "process.minor_faults": (untraced.usage.ru_minflt, "count"),
        "process.user_s": (untraced.usage.ru_utime, "s"),
        "process.sys_s": (untraced.usage.ru_stime, "s"),
    }
    for layer in LAYERS:
        mine = [s for s in stats.values() if s["layer"] == layer]
        m[f"{layer}.busy_s"] = (sum(s["layer_busy"] for s in mine), "s")
        m[f"{layer}.self_s"] = (sum(s["self_time"] for s in mine), "s")
    m["trace.run_s"] = (traced_run_s, "s")
    m["trace.untraced_run_s"] = (untraced.run_s, "s")
    m["trace.overhead_s"] = (traced_run_s - untraced.run_s, "s")
    m["trace.wrapper_cost_s"] = (call_cost * sum(s["calls"] for s in stats.values()), "s")
    m["trace.covered_s"] = (covered, "s")
    m["trace.uncovered_s"] = (traced_run_s - covered, "s")
    m["trace.covered_pct"] = (100.0 * covered / traced_run_s, "%")
    return m


def traced(workload: str, inputs: str, work: str):
    """An untraced round, the overhead's base and process usage, then a traced one."""
    plain = Round(workload, inputs, os.path.join(work, "plain"), False)
    traced_round = Round(workload, inputs, os.path.join(work, "traced"), True)
    if not (plain.ok and traced_round.ok):
        raise BenchError(f"a round of the traced run of {workload} failed")
    record = traced_round.record
    metrics = layer_metrics(record["trace"], record["call_cost"], traced_round.run_s, plain)
    return [plain, traced_round], metrics


def run_workload(workload: str, seeds: tuple[int, int], seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    inputs = prepare_inputs(seeds)
    problems = _check_inputs(inputs)
    for problem in problems:
        print(f"inputs: CHECK FAILED: {problem}", file=sys.stderr)
    _warm_file_cache(inputs)
    work = os.path.join(CACHE, "runs", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            rounds, metrics = traced(workload, inputs, work)
        else:
            rounds, metrics = end_to_end(workload, inputs, work, seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = operations(workload, inputs)
    return {
        "correct": not problems and all(not r.problems for r in rounds),
        "attempted": ops * len(rounds),
        "failed": ops * sum(not r.ok for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and echoed; it selects no other input (see README.md)")
    parser.add_argument("--scene-seed", type=int, default=workloads.SCENARIO_SEED,
                        help="scenario seed of both scenes: vehicle textures, crop sampling")
    parser.add_argument("--background-seed", type=int, default=workloads.BACKGROUND_SEED,
                        help="background texture seed of both scenes")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--remake", action="store_true", help="remake the cached inputs and exit")
    args = parser.parse_args(argv)
    seeds = (args.scene_seed, args.background_seed)
    try:
        if args.remake:
            print(f"inputs remade in {prepare_inputs(seeds, remake=True)}")
            return 0
        if args.all:
            for name in workloads.NAMES:
                result = run_workload(name, seeds, args.seconds, False)
                for metric, entry in result["metrics"].items():
                    print(f"{name}\t{metric}\t{entry['value']:.4f}\t{entry['unit']}")
                print(f"{name}\tcorrect={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
            return 0
        if args.workload is None:
            parser.error("--workload is required (or --all / --remake)")
        print(f"workload={args.workload} seed={args.seed} scene_seeds={seeds} "
              f"seconds={args.seconds} trace={args.trace}")
        result = run_workload(args.workload, seeds, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

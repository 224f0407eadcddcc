"""One fresh benchmark process: render inputs, probe set-up, or run one round.

    child.py prepare --inputs DIR --seeds SCENARIO,BACKGROUND
    child.py probe   --workload NAME --inputs DIR --work DIR --result FILE
    child.py round   --workload NAME --inputs DIR --work DIR --result FILE [--trace]

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
`probe` stops the subcommand at the end of its set-up and records the
CLOCK_MONOTONIC time; `round` times the subcommand's entry point and writes
its output, for run.py to check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The calls that mark the end of set-up: the first frame reaching a detector
# or the tracker, or training starting to sample crops.
READY_MARKERS = {
    workloads.COUNT: (
        ("roadcount.boostcascade", "detect"),
        ("roadcount.tracking", "Tracker.step"),
    ),
    workloads.SWEEP: (
        ("roadcount.bgsub", "update_background"),
        ("roadcount.bgsub", "subtract"),
        ("roadcount.tracking", "Tracker.step"),
    ),
    workloads.TRAIN: (
        ("roadcount.synthgen", "generate_training_set"),
        ("roadcount.synthgen", "generate_scene"),
    ),
}


class _Ready(BaseException):
    """Raised at the first ready marker; a BaseException so no handler in
    the program under test swallows it."""


def _import_cli():
    from roadcount import cli

    expected = os.path.join(ROOT, "src", "roadcount")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise SystemExit(f"roadcount imported from {cli.__file__}, expected {expected}")
    return cli


def _main_captured(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def prepare(inputs: str, seed: int, background_seed: int) -> None:
    """Render both scenes and train the cascade the count workload uses."""
    cli = _import_cli()
    from roadcount import synthgen

    markers = synthgen.default_markers(240, 135)
    ten = synthgen.ScenarioConfig(
        width=240, height=135, frames=260, markers=markers,
        spawns=synthgen.spawn_schedule(10, 15, 2, 4.0, 30, 30, start=60),
        seed=seed, background_seed=background_seed,
    )
    step = synthgen.ScenarioConfig(
        width=240, height=135, frames=1600, markers=markers,
        spawns=synthgen.spawn_schedule(104, 15, 2, 4.0, 30, 30),
        seed=seed, background_seed=background_seed,
        illumination=((800, 50),),
    )
    ten_dir = os.path.join(inputs, workloads.TEN_SCENE)
    synthgen.save_scene(ten_dir, ten)
    synthgen.save_scene(os.path.join(inputs, workloads.STEP_SCENE), step)
    rc, out = _main_captured(cli, [
        "train", "--scene", ten_dir, "--model", os.path.join(inputs, workloads.MODEL),
    ] + workloads.TRAIN_BUDGET)
    if rc != 0:
        raise SystemExit(f"training the cached model failed ({rc}): {out}")


def probe(workload: str, inputs: str, work: str, result: str) -> None:
    cli = _import_cli()

    def stop(fn):
        def ready(*args, **kwargs):
            raise _Ready

        return ready

    for module_name, attr in READY_MARKERS[workload]:
        tracer.patch(module_name, attr, stop)
    try:
        rc, out = _main_captured(cli, workloads.command(workload, inputs, work))
    except _Ready:
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    else:
        raise SystemExit(f"{workload} ended ({rc}) before reaching a ready marker: {out}")
    with open(result, "w", encoding="ascii") as fh:
        json.dump({"ready": ready}, fh)


def run_round(workload: str, inputs: str, work: str, result: str, trace: bool) -> None:
    cli = _import_cli()
    traced = None
    if trace:
        traced = tracer.Tracer()
        traced.install()
    argv = workloads.command(workload, inputs, work)
    t0 = time.perf_counter()
    rc, out = _main_captured(cli, argv)
    run_s = time.perf_counter() - t0
    record = {"rc": rc, "run_s": run_s, "stdout": out}
    if traced is not None:
        record["trace"] = traced.summary()
        record["call_cost"] = traced.call_cost()
    if workload == workloads.TRAIN and rc == 0:
        # Untimed checks of the fresh model: it reloads, and it counts.
        from roadcount.boostcascade import load_model

        model = load_model(os.path.join(work, workloads.MODEL))
        record["reloaded_stumps"] = [len(stage.stumps) for stage in model.stages]
        record["check_rc"], record["check_stdout"] = _main_captured(
            cli, workloads.ten_count_command(inputs, work)
        )
    with open(result, "w", encoding="ascii") as fh:
        json.dump(record, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "probe", "round"))
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seeds", help="scenario seed,background seed (prepare)")
    args = parser.parse_args()
    if args.mode == "prepare":
        seed, background_seed = (int(part) for part in args.seeds.split(","))
        prepare(args.inputs, seed, background_seed)
    elif args.mode == "probe":
        probe(args.workload, args.inputs, args.work, args.result)
    else:
        run_round(args.workload, args.inputs, args.work, args.result, args.trace)


if __name__ == "__main__":
    main()

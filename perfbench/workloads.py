"""The three workloads: the command line each one runs and what one round is.

Standard library only, so the parent process never imports roadcount.
"""

from __future__ import annotations

import os

COUNT = "count_feature_step1600"
SWEEP = "sweep_bgsub_step1600"
TRAIN = "train_ten260"
NAMES = (COUNT, SWEEP, TRAIN)

# Scene seeds of both rendered scenes (vehicle textures, crop sampling; background).
SCENARIO_SEED = 11
BACKGROUND_SEED = 4

# The reduced training budget of the test suite's shared cascade fixture.
TRAIN_BUDGET = [
    "--stages", "3", "--train_pos", "400", "--train_neg", "1500", "--train_hard", "2000",
]
# Sweep grid: one detection key and one counting key, 4 points.
GRID = {"th": ("10", "12"), "tfc": ("8", "16")}
MATCH_TOL = 25

TEN_SCENE = "ten"
STEP_SCENE = "step"
MODEL = "model.txt"


def command(workload: str, inputs: str, work: str) -> list[str]:
    """Arguments of `roadcount <subcommand> ...` for one round of the workload."""
    step = os.path.join(inputs, STEP_SCENE)
    if workload == COUNT:
        return [
            "count", "--scene", step, "--detector", "feature",
            "--model", os.path.join(inputs, MODEL), "--match_tol", str(MATCH_TOL),
            "--events_out", os.path.join(work, "events.txt"),
        ]
    if workload == SWEEP:
        grid = []
        for key, values in GRID.items():
            grid += ["--grid", f"{key}={','.join(values)}"]
        return ["sweep", "--scene", step, "--match_tol", str(MATCH_TOL)] + grid
    if workload == TRAIN:
        return [
            "train", "--scene", os.path.join(inputs, TEN_SCENE),
            "--model", os.path.join(work, MODEL),
        ] + TRAIN_BUDGET
    raise ValueError(f"unknown workload {workload!r}")


def ten_count_command(inputs: str, work: str) -> list[str]:
    """The untimed check of a fresh model: count the ten-vehicle scene with it."""
    return [
        "count", "--scene", os.path.join(inputs, TEN_SCENE), "--detector", "feature",
        "--model", os.path.join(work, MODEL), "--match_tol", str(MATCH_TOL),
        "--events_out", os.path.join(work, "ten_events.txt"),
    ]


def grid_points() -> int:
    points = 1
    for values in GRID.values():
        points *= len(values)
    return points

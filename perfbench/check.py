"""Checks of roadcount's outputs, computed apart from the program.

Standard library only: ground truth is derived from the scene's
scenario.cfg with this file's own geometry, counted events are re-scored
with this file's own matcher, and model files are read as text. Nothing is
compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import os
import re

RESULT_RE = re.compile(
    r"^RESULT fp=(\d+) fn=(\d+) gt=(\d+) acc_real=(\S+) acc_int=(\S+) counted=(\d+)$", re.M
)
MIN_ACCURACY = 90.0


def _round_half_up(x: float) -> int:
    return int(x + 0.5) if x >= 0 else -int(-x + 0.5)


def read_scenario(scene_dir: str) -> dict:
    values = {}
    with open(os.path.join(scene_dir, "scenario.cfg"), encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()

    def tuples(text, kind):
        return [tuple(kind(p) for p in chunk.split(",")) for chunk in text.split(";") if chunk]

    return {
        "width": int(values["width"]),
        "height": int(values["height"]),
        "frames": int(values["frames"]),
        "markers": tuples(values["markers"], int),
        "spawns": [
            (int(f), int(lane), speed, int(w), int(h))
            for f, lane, speed, w, h in tuples(values["spawns"], float)
        ],
    }


def derive_gt_events(scenario: dict) -> list[tuple[int, int, int]]:
    """(frame, vehicle, lane) of each vehicle whose visible box first overlaps
    its lane's marker before the scene ends."""
    width, height = scenario["width"], scenario["height"]
    events = []
    for vid, (start, lane, speed, w, h) in enumerate(scenario["spawns"]):
        mx, my, mw, mh = scenario["markers"][lane]
        x = _round_half_up(mx + mw / 2.0 - w / 2.0)
        for frame in range(start, scenario["frames"]):
            y = _round_half_up(speed * (frame - start))
            if y >= height:
                break
            overlap_w = min(x + w, width, mx + mw) - max(x, mx)
            overlap_h = min(y + h, height, my + mh) - max(y, my)
            if overlap_w > 0 and overlap_h > 0:
                events.append((frame, vid, lane))
                break
    return sorted(events)


def _read_ints(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="ascii") as fh:
        return [tuple(int(p) for p in line.split()) for line in fh if line.strip()]


def match(counted: list[tuple[int, int]], gt: list[tuple[int, int]], tol: int) -> tuple[int, int]:
    """(fp, fn) of greedy nearest-first matching on the same marker, |dframe| <= tol."""
    pairs = sorted(
        (abs(cf - gf), ci, gi)
        for ci, (cf, cm) in enumerate(counted)
        for gi, (gf, gm) in enumerate(gt)
        if cm == gm and abs(cf - gf) <= tol
    )
    free_c, free_g = set(range(len(counted))), set(range(len(gt)))
    for _, ci, gi in pairs:
        if ci in free_c and gi in free_g:
            free_c.discard(ci)
            free_g.discard(gi)
    return len(free_c), len(free_g)


def accuracy(fp: int, fn: int, gt: int) -> float:
    return (1.0 - (fp + fn) / gt) * 100.0


def check_ground_truth(scene_dir: str, expected: int) -> list[str]:
    """The scene's gt_events.txt against the scenario's own geometry."""
    derived = derive_gt_events(read_scenario(scene_dir))
    written = sorted(_read_ints(os.path.join(scene_dir, "gt_events.txt")))
    problems = []
    if len(derived) != expected:
        problems.append(f"scenario yields {len(derived)} GT events, expected {expected}")
    if written != derived:
        problems.append(f"gt_events.txt ({len(written)} events) differs from the scenario")
    return problems


def check_count(
    stdout: str, events_path: str, scene_dir: str, tol: int
) -> tuple[list[str], float | None]:
    """Re-score a `count --events_out` run; returns (problems, acc_real)."""
    found = RESULT_RE.findall(stdout)
    if len(found) != 1:
        return [f"expected one RESULT line, found {len(found)}"], None
    fp, fn, gt, acc_text, _, counted = found[0]
    fp, fn, gt, counted = int(fp), int(fn), int(gt), int(counted)
    events = [(frame, marker) for frame, marker in _read_ints(events_path)]
    gt_events = [(frame, lane) for frame, _, lane in derive_gt_events(read_scenario(scene_dir))]
    my_fp, my_fn = match(events, gt_events, tol)
    problems = []
    if (my_fp, my_fn, len(gt_events), len(events)) != (fp, fn, gt, counted):
        problems.append(
            f"RESULT fp={fp} fn={fn} gt={gt} counted={counted}, re-scored "
            f"fp={my_fp} fn={my_fn} gt={len(gt_events)} counted={len(events)}"
        )
    acc = accuracy(my_fp, my_fn, len(gt_events))
    if acc_text != f"{acc:.2f}":
        problems.append(f"RESULT acc_real={acc_text}, formula gives {acc:.2f}")
    return problems, acc


def check_sweep(stdout: str, grid: dict, expected_gt: int) -> tuple[list[str], float | None]:
    """Sweep TSV rows; returns (problems, mean acc_real over the rows)."""
    lines = [line.split("\t") for line in stdout.strip().splitlines()]
    keys = sorted(grid)
    if not lines or lines[0] != keys + ["fp", "fn", "gt", "acc_real", "acc_int"]:
        return [f"unexpected sweep header {lines[:1]}"], None
    rows = lines[1:]
    expected_points = [[a, b] for a in grid[keys[0]] for b in grid[keys[1]]]
    if [row[:2] for row in rows] != expected_points:
        return [f"sweep rows {[row[:2] for row in rows]} are not the grid {expected_points}"], None
    problems = []
    accs = []
    counted = {}
    for row in rows:
        fp, fn, gt = int(row[2]), int(row[3]), int(row[4])
        acc = accuracy(fp, fn, gt)
        accs.append(acc)
        if gt != expected_gt:
            problems.append(f"row {row[:2]}: gt={gt}, expected {expected_gt}")
        if row[5] != f"{acc:.2f}":
            problems.append(f"row {row[:2]}: acc_real={row[5]}, formula gives {acc:.2f}")
        if acc < MIN_ACCURACY:
            problems.append(f"row {row[:2]}: acc_real {acc:.2f} < {MIN_ACCURACY}")
        counted[tuple(row[:2])] = gt - fn + fp
    # Counted totals never rise with tfc at a fixed th.
    th_index, tfc_index = keys.index("th"), keys.index("tfc")
    for point, total in counted.items():
        for other, other_total in counted.items():
            if (point[th_index] == other[th_index]
                    and float(other[tfc_index]) > float(point[tfc_index])
                    and other_total > total):
                problems.append(
                    f"counted total rises with tfc: {point}={total}, {other}={other_total}")
    return problems, sum(accs) / len(accs)


def stage_stumps(model_path: str) -> list[int]:
    """Stump count of every stage, read from the model file's stage lines."""
    with open(model_path, encoding="ascii") as fh:
        return [int(line.split()[1]) for line in fh if line.startswith("stage ")]


def check_model(model_path: str, reloaded: list[int], reference: bytes) -> list[str]:
    stumps = stage_stumps(model_path)
    problems = []
    if not stumps:
        problems.append("model has no stages")
    if stumps != reloaded:
        problems.append(f"model file stages {stumps}, load_model gives {reloaded}")
    if any(b < a for a, b in zip(stumps, stumps[1:])):
        problems.append(f"stump counts decrease: {stumps}")
    with open(model_path, "rb") as fh:
        if fh.read() != reference:
            problems.append("model bytes differ from the model trained at set-up")
    return problems

#!/usr/bin/env python3
"""Validate cross-bench-v1 JSON artifacts.

Shared schema check for every --json-capable bench binary (see
bench/bench_util.h for the emitting side): the CI bench-smoke step and
the CTest bench smoke driver (cmake/RunBenchSmoke.cmake) both run it,
so a bench that silently drifts from the schema fails the build rather
than poisoning the cross-PR perf trajectory.

Beyond the schema, trajectory metrics with a checked-in tolerance band
(bench/fidelity_tolerance.json, loaded from this script's directory)
are range-checked: a record whose name matches a tolerance entry must
have items_per_sec inside [min, max], so e.g. the estimator-fidelity
ratio table9/functional_vs_estimated failing structurally (estimator
schedule and functional execution diverging) fails CI instead of
silently drifting.

Speed-ratio bands (SPEED_RATIO_BANDS below) hold only for optimised
code: a Debug or sanitizer build runs the vector and scalar paths at
unrelated speeds. With --build-type TYPE, those bands are checked only
when TYPE is an optimised CMake build type (Release, RelWithDebInfo,
MinSizeRel); without it every band is checked. The schema check and
every other band apply in all builds.

Usage: validate_bench_json.py [--build-type TYPE] FILE.json [FILE.json ...]

Exits 0 when every file conforms; prints one line per failure and
exits 1 otherwise.
"""

import argparse
import json
import numbers
import os
import sys

SCHEMA = "cross-bench-v1"
TOLERANCE_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fidelity_tolerance.json"
)
OPTIMISED_BUILD_TYPES = {"release", "relwithdebinfo", "minsizerel"}


def is_speed_ratio_band(name):
    """The bands that compare two timings of optimised code."""
    return name == "table9/functional_vs_estimated" or (
        name.startswith("micro_ntt/") and name.endswith("_vs_scalar_speedup")
    )


def load_tolerances(optimised):
    """name -> {min, max} bands; missing file means no range checks.
    Speed-ratio bands are dropped unless @p optimised."""
    try:
        with open(TOLERANCE_FILE, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError:
        return {}
    bands = {}
    for name, band in doc.items():
        if name.startswith("__") or not isinstance(band, dict):
            continue
        if not optimised and is_speed_ratio_band(name):
            continue
        lo, hi = band.get("min"), band.get("max")
        if isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real):
            bands[name] = (float(lo), float(hi))
    return bands


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return False


def validate_record(path, i, rec, tolerances):
    where = f"records[{i}]"
    if not isinstance(rec, dict):
        return fail(path, f"{where} is not an object")
    name = rec.get("name")
    if not isinstance(name, str) or not name:
        return fail(path, f"{where}.name missing or empty")
    params = rec.get("params")
    if not isinstance(params, dict):
        return fail(path, f"{where}.params is not an object")
    for k, v in params.items():
        if not isinstance(k, str) or not isinstance(v, str):
            return fail(
                path, f"{where}.params has a non-string key or value"
            )
    for field in ("ns_per_op", "items_per_sec"):
        v = rec.get(field)
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            return fail(path, f"{where}.{field} missing or non-numeric")
        if v < 0 or v != v:  # negative or NaN
            return fail(path, f"{where}.{field} = {v} is not a valid "
                              "measurement")
    if name in tolerances:
        lo, hi = tolerances[name]
        v = rec.get("items_per_sec")
        if not lo <= v <= hi:
            return fail(
                path,
                f"{where} '{name}' = {v} outside the checked-in "
                f"tolerance [{lo}, {hi}] (bench/fidelity_tolerance.json)",
            )
    return True


def validate_file(path, tolerances):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or malformed JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if doc.get("schema") != SCHEMA:
        return fail(path, f"schema is {doc.get('schema')!r}, expected "
                          f"{SCHEMA!r}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        return fail(path, "bench name missing or empty")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        return fail(path, "records missing or empty")
    ok = all(
        validate_record(path, i, r, tolerances)
        for i, r in enumerate(records)
    )
    if ok:
        print(f"{path}: ok ({bench}, {len(records)} record(s))")
    return ok


def main(argv):
    ap = argparse.ArgumentParser(
        description="Validate cross-bench-v1 JSON artifacts.")
    ap.add_argument("--build-type",
                    help="CMake build type of the binaries that wrote "
                         "the files; speed-ratio bands apply only to "
                         "optimised types")
    ap.add_argument("files", nargs="+", metavar="FILE.json")
    args = ap.parse_args(argv[1:])
    optimised = (args.build_type is None or
                 args.build_type.lower() in OPTIMISED_BUILD_TYPES)
    tolerances = load_tolerances(optimised)
    return 0 if all([validate_file(p, tolerances) for p in args.files]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

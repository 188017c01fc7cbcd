#!/usr/bin/env python3
"""Bench-JSON gate: the one evaluator of the gates each bench declares.

Every gated bench writes a ``"gates"`` array into its JSON. A gate is
``{key, op, bound, kind}``, optionally with ``slack`` and ``when``. ``key``
is a dotted path with list indices (``gemm[2].speedup``); ``op`` is ``>=``,
``<=`` or ``==`` (a bool only ever equals a bool); kind ``abs`` compares
with ``bound``, kind ``rel`` with ``bound`` x the baseline's value, or with
``max(slack, bound x base)`` when ``slack`` is given; ``when`` names a
boolean key that must be true for the gate to apply.

A fresh JSON passes against its committed baseline in bench/results/ when
it has the same structure (keys, list lengths and value types: ints and
floats mix, a bool matches only a bool), equal identity keys (the sweep
shape), a ``gates`` array equal to the baseline's (so dropping or loosening
a gate takes a visible baseline edit), and every gate holds. A bench
without a baseline is paired with itself, which keeps its ``abs`` gates.

Usage:  check_bench.py BASELINE.json FRESH.json [more pairs ...]
        check_bench.py --self-test
Exit:   0 all gates pass, 1 otherwise (every violation is printed).
"""

import copy
import functools
import glob
import json
import operator
import os
import re
import sys

RESULTS = os.path.join(os.path.dirname(__file__), "..", "bench", "results")
OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}
# Sweep-identity keys: must be exactly equal.
IDENTITY_KEYS = {"n", "samples", "lanes", "units", "samples_per_unit",
                 "benchmark", "compiled_in", "jobs", "seed", "trace_kinds",
                 "trace_priorities", "trace10k_jobs", "curve_n", "dist_n",
                 "kill_grains", "transfer_samples", "payload_min_bytes",
                 "payload_max_bytes", "dist_total_grains", "pipeline_depth",
                 "pipeline_units", "pipeline_grains", "pipeline_chunk_grains",
                 # bench_matrix: the cells, the grid shape and the roster.
                 "cell", "cells", "mode", "schedulers", "tie_tolerance",
                 "total_grains", "replay",
                 # bench_kdisp: the family roster and the variant count.
                 "family", "variants"}


def fail(errors, path, message):
    errors.append(f"  {path}: {message}")


def same_type(a, b):
    """Ints and floats mix; a bool matches only a bool."""
    return type(a) is type(b) or {type(a), type(b)} <= {int, float}


def compare(base, fresh, path, errors):
    """Structure, type and identity compare of fresh against base."""
    if not same_type(base, fresh):
        fail(errors, path, f"type changed: {type(base).__name__} -> "
                           f"{type(fresh).__name__}")
    elif isinstance(base, dict):
        if set(base) != set(fresh):
            fail(errors, path, f"keys changed (missing="
                               f"{sorted(set(base) - set(fresh))}, extra="
                               f"{sorted(set(fresh) - set(base))})")
            return
        for key in base:
            if key != "gates":
                compare(base[key], fresh[key], f"{path}.{key}", errors)
            elif (json.dumps(base[key], sort_keys=True) !=
                  json.dumps(fresh[key], sort_keys=True)):
                fail(errors, f"{path}.gates", "differ from the baseline's "
                     "(dropping or loosening a gate needs a baseline edit)")
    elif isinstance(base, list):
        if len(base) != len(fresh):
            fail(errors, path, f"sweep length {len(base)} -> {len(fresh)}")
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            compare(b, f, f"{path}[{i}]", errors)
    elif path.rsplit(".", 1)[-1].split("[")[0] in IDENTITY_KEYS \
            and base != fresh:
        fail(errors, path, f"identity value changed: {base!r} -> {fresh!r}")


def parts(key):
    """``gemm[2].speedup`` -> ``["gemm", 2, "speedup"]``."""
    return [int(p) if p.isdigit() else p
            for p in re.findall(r"[^.\[\]]+", key)]


def lookup(doc, key):
    return functools.reduce(operator.getitem, parts(key), doc)


def limit(gate, base):
    """What a gate's value is compared with."""
    if gate["kind"] == "abs":
        return gate["bound"]
    if gate["kind"] != "rel":
        raise ValueError(f"unknown kind {gate['kind']!r}")
    lim = gate["bound"] * lookup(base, gate["key"])
    return max(gate["slack"], lim) if "slack" in gate else lim


def check_gates(base, fresh, label, errors):
    """Evaluates the baseline's gates (compare() holds fresh's equal)."""
    for i, gate in enumerate(base.get("gates", [])):
        path = f"{label}.gates[{i}]"
        try:
            if "when" in gate and lookup(fresh, gate["when"]) is not True:
                continue
            value, lim = lookup(fresh, gate["key"]), limit(gate, base)
            holds = OPS[gate["op"]](value, lim)
        except (LookupError, TypeError, ValueError) as exc:
            fail(errors, path, f"cannot evaluate {gate}: {exc!r}")
            continue
        if not holds or (type(value) is bool) != (type(lim) is bool):
            fail(errors, path, f"{gate['key']} = {value!r} fails "
                               f"{gate['op']} {lim!r} ({gate['kind']})")


def check_pair(base, fresh, label):
    """Every violation of fresh against base (empty = pass)."""
    errors = []
    compare(base, fresh, label, errors)
    check_gates(base, fresh, label, errors)
    return errors


def load_json(path, role):
    """(doc, None), or (None, message) naming the file and a likely cause."""
    hint = ("was it committed to bench/results/?" if role == "baseline"
            else "did the bench binary run and write its output file?")
    try:
        with open(path) as f:
            return json.load(f), None
    except FileNotFoundError:
        return None, f"{role} JSON missing: {path} ({hint})"
    except (OSError, ValueError) as exc:  # ValueError: unparseable JSON
        return None, f"cannot read {role} JSON {path}: {exc}"


def moved(doc, **values):
    """A deep copy of doc with the given keys set."""
    out = copy.deepcopy(doc)
    for key, value in values.items():
        *head, last = parts(key)
        functools.reduce(operator.getitem, head, out)[last] = value
    return out


def past(value, gate, lim):
    """value moved just past a gate's limit: a bool flipped, a count off by
    one, anything else 1e-9 relative past it."""
    if type(value) is bool:
        return not value
    step = 1 if type(value) is int and type(lim) is int \
        else 1e-9 * (abs(lim) or 1.0)
    return lim - step if gate["op"] == ">=" else lim + step


def self_test():
    """Each committed baseline passes against itself and fails with a gate
    dropped, a bound moved or an identity changed; each of its gates fires
    just past its bound, holds at it and is skipped where `when` is false."""
    paths = sorted(glob.glob(os.path.join(RESULTS, "*.json")))
    results = [bool(paths)]  # an empty sweep fails instead of passing

    def case(label, base, fresh, must_flag, gate=None):
        errors = check_pair(base, fresh, "self-test")
        flagged = bool(errors) if gate is None else any(
            f".gates[{gate}]:" in e for e in errors)
        results.append(flagged == must_flag)
        if flagged != must_flag:
            print(f"  FAIL: {label} (expected flagged={must_flag})")
            print("\n".join(errors))

    for path in paths:
        base, _ = load_json(path, "baseline")
        name = base["benchmark"]
        case(f"{name} against itself", base, base, False)
        case(f"{name} with a dropped gate", base,
             moved(base, gates=base["gates"][:-1]), True)
        case(f"{name} with a moved bound", base,
             moved(base, **{"gates[0].bound": 0.5}), True)
        case(f"{name} with a changed identity", base,
             moved(base, benchmark="x"), True)
        for i, gate in enumerate(base["gates"]):
            key, lim = gate["key"], limit(gate, base)
            label = f"{name} gate {i} ({key} {gate['op']} {lim!r})"
            when = {gate["when"]: True} if "when" in gate else {}
            fresh = moved(base, **when,
                          **{key: past(lookup(base, key), gate, lim)})
            case(f"{label} just past the bound", base, fresh, True, i)
            case(f"{label} at the bound", base, moved(base, **{key: lim}),
                 False, i)
            if when:
                case(f"{label} where {gate['when']} is false", base,
                     moved(fresh, **{gate["when"]: False}), False, i)

    case("a bool turned number fails", {"replay_identical": True,
         "lost_grains": 0}, {"replay_identical": 1, "lost_grains": False},
         True)
    numbers = {"replay_identical": 1, "lost_grains": False, "gates": [
        {"key": "replay_identical", "op": "==", "bound": True, "kind": "abs"},
        {"key": "lost_grains", "op": "==", "bound": 0, "kind": "abs"}]}
    case("1 fails == true", numbers, numbers, True, 0)
    case("False fails == 0", numbers, numbers, True, 1)
    # Past the bound by less than the old print precision (%.4f: 0.7500).
    ratio = {"ratio": 0.75004, "gates": [
        {"key": "ratio", "op": "<=", "bound": 0.75, "kind": "abs"}]}
    case("0.75004 fails <= 0.75", ratio, ratio, True, 0)
    zero = {"d": 0.0, "gates": [{"key": "d", "op": "<=", "bound": 100,
                                 "kind": "rel", "slack": 1e-6}]}
    case("slack over a zero baseline", zero, moved(zero, d=9e-7), False, 0)
    results.append(main(["", "/nonexistent-baseline.json",
                         "/nonexistent-fresh.json"]) == 1)

    failed = results.count(False)
    print(f"self-test {'FAILED' if failed else 'OK'} "
          f"({failed} of {len(results)} cases failed)")
    return 1 if failed else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) < 3 or len(argv) % 2 == 0:
        print(__doc__)
        return 2
    failures = 0
    for base_path, fresh_path in zip(argv[1::2], argv[2::2]):
        base, base_err = load_json(base_path, "baseline")
        fresh, fresh_err = load_json(fresh_path, "fresh")
        errors = [f"  {e}" for e in (base_err, fresh_err) if e] or \
            check_pair(base, fresh, base.get("benchmark", base_path))
        if errors:
            print(f"FAIL {fresh_path} against {base_path}:")
            print("\n".join(errors))
            failures += 1
        else:
            print(f"OK   {fresh_path} within tolerance of {base_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

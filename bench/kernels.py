"""Kernel scaling table: one call per layer kernel at n = 16, 20 and 22.

Each kernel runs on one seeded instance per arity (gaussian weights, gaussian
threshold, head of the three largest weights) and reports the median of
`_REPS` calls as `<module>.<function>.n<arity>_ms`.  A kernel the package no
longer has, or whose input could not be built, is reported as absent with
value 0.
"""

from __future__ import annotations

import importlib
import statistics
import time

ARITIES = (16, 20, 22)
_REPS = 3
_HEAD_SIZE = 3
_EPSILON = 0.1
_DELTA = 0.8


def _median_ms(fn, *args):
    times, result = [], None
    for _ in range(_REPS):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times), result


def kernel_names() -> list[str]:
    kernels = ("ltf.truth_table", "fncore.wht", "_bits.popcounts", "noise.degree_weights",
               "noise.ns_exact", "restriction.bias_profile", "junta.head_projection",
               "restriction.embed_junta", "fncore.distance")
    return [f"{k}.n{n}_ms" for n in ARITIES for k in kernels]


def scaling_table(seed: int) -> tuple[dict[str, float], set[str]]:
    """Metrics of every kernel at every arity, and the kernels found absent."""
    modules = {name: importlib.import_module(f"hsf.{name}") for name in
               ("_bits", "fncore", "ltf", "noise", "restriction", "junta")}
    ltf, fncore = modules["ltf"], modules["fncore"]
    metrics = dict.fromkeys(kernel_names(), 0.0)
    absent = set()

    def run(name, n, *args):
        module, fn_name = name.split(".")
        fn = getattr(modules[module], fn_name, None)
        if fn is None or any(a is None for a in args):
            absent.add(name)
            return None
        ms, result = _median_ms(fn, *args)
        metrics[f"{name}.n{n}_ms"] = ms
        return result

    for n in ARITIES:
        instance = ltf.random_ltf(n, "gaussian", theta_law="gaussian:1", seed=[seed, n])
        head = 0
        for coord in instance.original_index[:_HEAD_SIZE]:
            head |= 1 << int(coord)
        table = run("ltf.truth_table", n, instance, n)
        spectrum = run("fncore.wht", n, table)
        run("_bits.popcounts", n, n)
        run("noise.degree_weights", n, spectrum)
        run("noise.ns_exact", n, spectrum, _EPSILON)
        run("restriction.bias_profile", n, table, head)
        run("junta.head_projection", n, table, head, _DELTA)
        junta_fn = fncore.random_function(_HEAD_SIZE, seed=[seed, n])
        lifted = run("restriction.embed_junta", n, junta_fn, head, n)
        run("fncore.distance", n, table, lifted)
    return metrics, absent

"""Run loop, metric computation and the machine record.

Metric names come from BENCHMARK.json; each name says how it is computed.
End-to-end: ``setup_s`` (median set-up), ``pass_s`` (mean untraced pass
wall), ``peak_rss_mb``. Per-layer names are ``<module>.<function>.<stat>``
with stat ``calls``, ``total_s`` or ``self_s`` (each per traced pass) or
``ms_p50`` (median call); a few harness-level names are listed in
``_extra_layer_metrics``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

from spans import Patches, Tracer, install_tracer
from workloads import RATE_UNITS, WORKLOADS, Checks, Failed

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_PASS = 3
MIN_PASSES = 2          # the second pass checks that results repeat; a traced run needs both kinds


def run(workload, seed, seconds, traced, work: Path, out_dir: Path, spec: dict,
        blas_threads: int) -> dict:
    setup, run_pass = WORKLOADS[workload]
    checks = Checks()
    setup_s = []
    tracer = Tracer()
    passes = []                     # (traced, PassResult)
    start = time.perf_counter()
    while True:
        # Set-ups before every pass spread the set-up samples over the run,
        # so one slow phase of the machine cannot take them all.
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            ctx = setup(seed, work)
            setup_s.append(time.perf_counter() - t0)
        is_traced = traced and len(passes) % 2 == 1
        patches = Patches()
        try:
            if is_traced:
                install_tracer(tracer, patches)
            res = run_pass(ctx, checks, patches)
        except Failed:
            break
        finally:
            patches.restore()
        passes.append((is_traced, res))
        checks.check(res.values == passes[0][1].values,
                     f"pass {len(passes)} results {res.values} differ from pass 1 "
                     f"{passes[0][1].values}")
        estimate = statistics.median(r.wall_s for _, r in passes) + \
            SETUPS_PER_PASS * statistics.median(setup_s)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + estimate > seconds:
            break

    plain = [r for t, r in passes if not t]
    with_trace = [r for t, r in passes if t]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(blas_threads),
        "setup_s": setup_s,
        "pass_wall_s": [[int(t), r.wall_s] for t, r in passes],
        "stages": _medians([r.stages for r in plain]),
        "stage_metrics": _medians([r.rates for r in plain]),
        "values": passes[0][1].values if passes else {},
        "failures": checks.failures,
    }
    metrics = {}
    if traced and plain and with_trace:
        stats = tracer.layer_stats()
        extras = _extra_layer_metrics(stats, plain, with_trace)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": _layer_metric(m["name"], stats, extras,
                                                         len(with_trace)), "unit": m["unit"]}
        record["layers"] = {k: {s: v for s, v in d.items() if s != "durations"}
                            for k, d in sorted(stats.items())}
        record["trace_extras"] = extras
        tracer.dump(out_dir / f"{workload}-seed{seed}-spans.json")
    elif plain:
        # The mean, not the median: the machine switches between speed
        # regimes inside a run, and a median snaps to whichever regime held
        # more passes, while the mean weighs each regime by its time.
        e2e = {"setup_s": statistics.median(setup_s),
               "pass_s": statistics.fmean(r.wall_s for r in plain),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    # A pass that cannot complete records a failure, so no failures means
    # every pass ran and at least one operation was attempted.
    record["result"] = {"correct": not checks.failures, "attempted": checks.attempted,
                        "failed": len(checks.failures), "metrics": metrics}
    path = out_dir / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _medians(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def _extra_layer_metrics(stats, plain, with_trace) -> dict:
    """Per-layer figures that are not one wrapped function's span."""
    cells = sorted(c for r in with_trace for c in r.cell_s)
    traced_wall = sum(r.wall_s for r in with_trace)
    plain_wall = statistics.median(r.wall_s for r in plain)
    return {
        "benchmark.cell.calls": len(cells) / len(with_trace),
        "benchmark.cell.ms_p50": 1e3 * statistics.median(cells) if cells else 0.0,
        "benchmark.cell.ms_p90": 1e3 * cells[int(0.9 * (len(cells) - 1))] if cells else 0.0,
        "geometry.write_ply.bytes": statistics.median(r.bytes_written for r in with_trace),
        "ingest.mine_directory.kept_ratio": with_trace[0].values.get("kept_ratio", 0.0),
        "trace.overhead_frac": statistics.median(r.wall_s for r in with_trace) / plain_wall - 1.0,
        "trace.self_coverage": sum(s["self_s"] for s in stats.values()) / traced_wall,
    }


def _layer_metric(name: str, stats: dict, extras: dict, n_traced: int) -> float:
    if name in extras:
        return extras[name]
    label, stat = name.rsplit(".", 1)
    s = stats.get(label)
    if stat == "calls":
        return s["calls"] / n_traced if s else 0
    if stat in ("total_s", "self_s"):
        return s[stat] / n_traced if s else 0.0
    if stat == "ms_p50":
        return s["ms_p50"] if s else 0.0
    raise KeyError(f"per-layer metric {name!r} has no known statistic")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas_threads_reported() -> dict:
    """Thread count as each loaded OpenBLAS reports it."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads_set": blas_threads, "blas_threads_reported": _blas_threads_reported(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_revision": _git_revision(), "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Human-readable report
# ---------------------------------------------------------------------------

_PROFILE = ("network.forward_embed", "network.backward_embed",
            "network.triplet_loss_and_grad")
_SAMPLING = ("triplets.build_pair_distribution", "triplets.LeafIndex.build",
             "triplets.sample_triplets")


def report_lines(record: dict) -> list[str]:
    lines = [f"environment {json.dumps(record['environment'], sort_keys=True)}",
             "setup_s runs " + " ".join(f"{v:.4f}" for v in record["setup_s"]),
             "pass walls (traced?, s) " + " ".join(f"{t}:{w:.3f}" for t, w in record["pass_wall_s"])]
    for name, value in record["stage_metrics"].items():
        lines.append(f"{name} {value:.4f} {RATE_UNITS[name]}")
    for name, value in record["values"].items():
        lines.append(f"{name} {value:.6f}")
    res = record["result"]
    lines.append(f"failed_frac {res['failed'] / res['attempted']:.4f} "
                 f"({res['failed']} of {res['attempted']} checked operations)")
    if "layers" in record:
        layers = record["layers"]
        extras = record["trace_extras"]
        lines.append(f"tracing overhead {100 * extras['trace.overhead_frac']:+.1f}% of the "
                     f"untraced pass; layer self time covers "
                     f"{100 * extras['trace.self_coverage']:.1f}% of traced wall")
        if "network.backward_embed" in layers and "network.forward_embed" in layers:
            prof = [f"{lab.split('.')[-1]} {layers[lab]['ms_p50']:.1f} ms"
                    for lab in _PROFILE if lab in layers]
            per_shape = sum(layers[lab]["ms_p50"] for lab in _SAMPLING if lab in layers)
            lines.append("per-call medians: " + ", ".join(prof) +
                         f"; triplet sampling {per_shape:.2f} ms per shape")
        top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:12]
        for lab, s in top:
            lines.append(f"  {lab:<40} calls {s['calls']:>7} self {s['self_s']:9.4f} s "
                         f"total {s['total_s']:9.4f} s p50 {s['ms_p50']:9.3f} ms")
    lines += [f"FAILED {f}" for f in record["failures"]]
    return lines

#!/usr/bin/env python3
"""End-to-end benchmark of the toolkit's training path: one command per workload.

    python3 perfbench/run.py --workload train-small-w16 --seed 1 --seconds 24 --trace 0

Builds the benchmark from source, runs the workload's passes in fresh
processes, checks the outputs, and prints one JSON line last:
`{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
`--trace 0` prints the end-to-end metrics of one untraced pass.
`--trace 1` runs an untraced pass and then a traced replay, checks that
the replay's per-step losses are bit-identical, and prints the
per-layer metrics. Exits non-zero on any correctness violation.

Metric sources and what each should move are listed in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("train-paper", "train-small-w16")

# End-to-end metrics: (name, unit).
E2E = [
    ("setup_s", "s"),
    ("train.cpu_ms_per_sample", "ms"),
]
# Per-layer metrics measured by the traced replay: (name, unit).
LAYERS = [
    ("datasets.decode_us", "us"),
    ("datasets.corpus_write_ms", "ms"),
    ("graph.build_us", "us"),
    ("graph.cache_hit_ratio", "ratio"),
    ("collate.us", "us"),
    ("ddp.step_us", "us"),
    ("models.forward_us", "us"),
    ("autograd.backward_us", "us"),
    ("nn.allreduce_us", "us"),
    ("nn.grad_bytes_per_step", "bytes"),
    ("autograd.tape_nodes", "count"),
    ("opt.probe_us", "us"),
    ("opt.clip_us", "us"),
    ("opt.adamw_us", "us"),
    ("opt.step_share", "ratio"),
    ("tensor.pool_misses_per_step", "count"),
    ("tensor.pool_fresh_mb_per_step", "MB"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
]
# Figures of the untraced pass reported with the per-layer metrics:
# (name, unit). They do not repeat within a tenth on a shared host, so
# they carry no bound.
UNTRACED = [
    ("train.samples_per_s", "1/s"),
    ("train.step_p50_ms", "ms"),
    ("train.val_loss", "loss"),
    ("peak_rss_mb", "MB"),
]
# Untraced passes per run, each in a fresh process and `--seconds / PASSES`
# long: their median evens out what differs between processes (memory
# placement, which host cores the CPUs land on).
PASSES = 3
PASS_TIMEOUT_S = 80


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo_build(target_dir):
    """Build the benchmark; returns False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log(f"build failed: {' '.join(cmd)}")
        return False
    return True


def run_pass(exe, args, workdir, traced, steps=None):
    """Run one training pass of `--seconds / PASSES` in a fresh process;
    returns its result object."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PASSES), "--workdir", str(workdir)]
    if steps is not None:
        cmd += ["--steps", str(steps)]
    if traced:
        cmd.append("--traced")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"pass {' '.join(cmd)} exited with {out.returncode}")
    return json.loads(lines[-1])


def git(*argv):
    try:
        out = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def provenance(args, untraced, steal):
    rev = git("rev-parse", "HEAD")
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "rayon_threads": untraced.get("rayon_threads"),
        "isa": untraced.get("isa"),
        "steal_share": steal,
        "git_rev": rev or "none (not a git checkout)",
        "git_dirty": (git("status", "--porcelain") != "") if rev else None,
        "rustc": rustc,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    # The benchmark measures the defaults: any toolkit switch set in the
    # environment would change what it measures.
    toggles = sorted(k for k in os.environ if k.startswith("MATSCIML_"))
    if toggles:
        log(f"refusing to run with toolkit switches set: {', '.join(toggles)}")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    if not cargo_build(target):
        return 1
    exe = target / "release" / "perfbench"

    workdir = ROOT / ".bench_run" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Untraced passes; each figure is the median pass's.
    passes = [run_pass(exe, args, workdir, traced=False) for _ in range(PASSES)]
    untraced = passes[0]
    um = {k: statistics.median(p["metrics"][k] for p in passes) for k in untraced["metrics"]}
    uc = {k: statistics.median(p["counts"][k] for p in passes) for k in untraced["counts"]}
    um["train.val_loss"] = um["val_loss"]
    for p in passes:
        m, c = p["metrics"], p["counts"]
        log(f"pass: loss digest {p['digest']} over {p['attempted']} steps; "
            f"{m['train.cpu_ms_per_sample']:.3f} CPU ms/sample, {m['train.samples_per_s']:.1f} samples/s, "
            f"step p50 {m['train.step_p50_ms']:.2f} ms, p{c['tail_pct']:.1f} {m['train.step_tail_ms']:.2f} ms "
            f"over {c['steps_timed']:.0f} steps in {c['windows']:.0f} windows; "
            f"host steal {100 * c['steal_share']:.1f}% of CPU time; "
            f"set-up median {m['setup_s'] * 1e3:.2f} ms of {c['setups']:.0f}; peak RSS {m['peak_rss_mb']:.1f} MB")
    result, wanted = {"metrics": um}, E2E
    errors = [e for p in passes for e in p["errors"]]
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    if args.trace:
        traced = run_pass(exe, args, workdir, traced=True, steps=untraced["steps"])
        # The replay must reproduce the first pass's Trainer::train losses
        # bit for bit.
        if traced["digest"] != untraced["digest"]:
            errors.append(f"traced replay loss digest {traced['digest']} != untraced {untraced['digest']}")
            failed += 1
        errors += traced["errors"]
        failed += traced["failed"]
        attempted += traced["attempted"]
        tm = traced["metrics"]
        tm["trace.overhead_frac"] = 1.0 - um["train.cpu_ms_per_sample"] / tm["train.cpu_ms_per_sample"]
        for name, _ in UNTRACED:
            tm[name] = um[name]
        result, wanted = traced, LAYERS + UNTRACED + [("trace.overhead_frac", "ratio")]
    # Corpora and checkpoints are large; the spans and logs stay.
    for junk in list(workdir.glob("corpus*")) + list(workdir.glob("*.mckpt")):
        shutil.rmtree(junk, ignore_errors=True) if junk.is_dir() else junk.unlink()

    metrics = {}
    for name, unit in wanted:
        value = result["metrics"].get(name)
        if value is None:
            errors.append(f"metric {name} was not measured")
            failed += 1
            continue
        metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0 and not errors
    for e in errors:
        log(f"VIOLATION: {e}")

    prov = provenance(args, untraced, uc["steal_share"])
    log(f"provenance: {json.dumps(prov)}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

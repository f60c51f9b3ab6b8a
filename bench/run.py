"""coinfo benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 bench/run.py --workload draws --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run sets the workload up in fresh interpreters several times (setup_s),
then repeats whole rounds of the workload's tasks in this process until
--seconds have passed, checks the outputs, and prints one JSON object as
the last line of stdout. With --trace 1 it alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead instead
of the end-to-end ones. `--workload all` runs the three workloads one
after another, each in its own process.
"""

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("draws", "refine", "exact")
SETUP_REPEATS = 5

# Raw times on a shared machine drift by up to a fifth over minutes with the
# load of neighbouring tenants. Every reported time is therefore scaled to
# reference speed: multiplied by CALIBRATION_REF_S over the time a fixed
# calibration kernel took next to it (the mean of the runs right before and
# right after a round; for a set-up, one run in the same child process).
CALIBRATION_REF_S = 0.15
_CALIBRATION_LOOPS = 15000

# a fresh interpreter imports coinfo and builds the workload's inputs, then
# times the calibration kernel
_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4])); print('ready', flush=True); "
    "import run; print(run.calibration_s())"
)

def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def calibration_s():
    """Seconds a fixed kernel of Python calls on small numpy arrays takes now."""
    table = np.array([[0.4, 0.1], [0.1, 0.4]])
    start = time.perf_counter()
    acc = 0.0
    for i in range(_CALIBRATION_LOOPS):
        m = table.sum(axis=i % 2)
        m = m[m > 0.0]
        acc += float(np.sum(m * np.log(m))) + sum(k * 0.5 for k in range(6))
    return time.perf_counter() - start


class Speed:
    """Scale factors to reference speed for intervals measured back to back."""

    def __init__(self):
        self.last = calibration_s()

    def factor(self):
        """Factor for the interval measured since the last call."""
        now = calibration_s()
        factor = 2.0 * CALIBRATION_REF_S / (self.last + now)
        self.last = now
        return factor


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter until the inputs are built, at reference speed."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            calibration, err = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup of {workload} failed: {err.strip()}")
    return elapsed * CALIBRATION_REF_S / float(calibration)


def _digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Accounts:
    """Per-task outcome of every round, checked against the first output."""

    def __init__(self, tasks, run_dir):
        self.tasks = tasks
        self.reference = run_dir / "reference"
        self.digests = {}
        self.attempted = 0
        self.failures = []  # (round, task name, reason)
        self.nondeterministic = []

    def record(self, round_no, where, errors):
        for task in self.tasks:
            self.attempted += 1
            if task.name in errors:
                self.failures.append((round_no, task.name, errors[task.name]))
                continue
            digest = _digest(where / task.name)
            if task.name not in self.digests:
                self.digests[task.name] = digest
                shutil.copytree(where / task.name, self.reference / task.name)
            elif digest != self.digests[task.name]:
                self.failures.append((round_no, task.name, "output differs from the first round"))
                self.nondeterministic.append(task.name)

    def check(self):
        """Check each task's first output; its failure counts in every round that matched it."""
        problems, measures = {}, {}
        for task in self.tasks:
            if task.name not in self.digests:
                continue
            try:
                found, values = task.check(self.reference / task.name)
            except Exception as exc:  # a malformed output is a failed check
                found, values = [f"check raised {type(exc).__name__}: {exc}"], {}
            measures.update(values)
            if found:
                problems[task.name] = found
        return problems, measures


def run_round(tasks, where):
    """Run every task once; returns (wall s, cpu s, {task name: error})."""
    shutil.rmtree(where, ignore_errors=True)
    for task in tasks:
        (where / task.name).mkdir(parents=True)
    errors = {}
    cpu0, start = _cpu_s(), time.perf_counter()
    for task in tasks:
        try:
            task.run(where / task.name)
        except Exception as exc:  # one failed operation; the run goes on
            errors[task.name] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, _cpu_s() - cpu0, errors


def run_workload(workload, seed, seconds, trace):
    setup = [measure_setup(workload, seed) for _ in range(SETUP_REPEATS)]

    sys.path[:0] = [str(SRC), str(BENCH)]
    import coinfo
    import tracing
    import workloads

    if Path(coinfo.__file__).resolve().parent != SRC / "coinfo":
        raise RuntimeError(f"imported coinfo from {coinfo.__file__}, not from {SRC}")
    tasks = workloads.build(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    accounts = Accounts(tasks, run_dir)

    walls, cpus, traced_walls, layer_rounds, timeline = [], [], [], [], []
    speed = Speed()
    start = time.perf_counter()
    round_no = 0
    while True:
        traced = trace and round_no % 2 == 1
        tracer = tracing.Tracer() if traced else None
        restore = tracer.install() if traced else None
        try:
            wall, cpu, errors = run_round(tasks, run_dir / "round")
        finally:
            if restore is not None:
                restore()
        if traced:
            layers = tracing.layer_metrics(tracer)
            if not layer_rounds:
                tracer.write(OUT / f"{workload}-seed{seed}-spans.csv")
            # hundreds of thousands of live spans would slow the garbage
            # collector, and with it the calibration and the next round
            tracer = None
            gc.collect()
        factor = speed.factor()
        timeline.append(f"{wall:.3f}/{wall * factor:.3f}{'T' if traced else ''}")
        round_no += 1
        accounts.record(round_no, run_dir / "round", errors)
        if traced:
            traced_walls.append(wall * factor)
            layer_rounds.append({
                k: (v * factor if u == "s" else v / factor if u == "1/s" else v, u)
                for k, (v, u) in layers.items()
            })
        else:
            walls.append(wall * factor)
            cpus.append(cpu * factor)
        if time.perf_counter() - start >= seconds and (not trace or round_no % 2 == 0):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(run_dir / "round", ignore_errors=True)

    problems, measures = accounts.check()
    already = {(r, name) for r, name, _ in accounts.failures}
    failed = len(accounts.failures) + sum(
        1 for name in problems for r in range(1, round_no + 1) if (r, name) not in already
    )
    correct = not problems and not accounts.nondeterministic

    report = [
        f"workload {workload} seed {seed} rounds {round_no} attempted {accounts.attempted} failed {failed}",
        "round wall_s raw/at reference speed (T: traced) " + " ".join(timeline),
    ]
    for name, found in problems.items():
        report += [f"FAILED CHECK {name}: {p}" for p in found]
    for r, name, reason in accounts.failures[:20]:
        report.append(f"FAILED round {r} {name}: {reason}")

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        report += [f"  {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    else:
        full, unsteady = tracing.merge(layer_rounds)
        if unsteady:
            correct = False
            report.append(f"COUNTS DIFFER between traced rounds: {', '.join(unsteady)}")
        full["optimize.ib_deficit_nats"] = (measures.get("ib_deficit_nats", 0.0), "nats")
        full["optimize.gap_nats"] = (measures.get("gap_nats", 0.0), "nats")
        full["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        full["trace.untraced_wall_s"] = (statistics.median(walls), "s")
        with open(OUT / f"{workload}-seed{seed}-layers.json", "w") as fh:
            json.dump({k: {"value": v, "unit": u} for k, (v, u) in full.items()}, fh, indent=1)
        report += [f"  {k} {v:.6g} {u}" for k, (v, u) in full.items()]
        # the JSON line holds BENCHMARK.json's per-layer metrics (README.md says why not all)
        with open(ROOT / "BENCHMARK.json") as fh:
            metrics = {m["name"]: full[m["name"]] for m in json.load(fh)["per_layer"]}
    return report, {
        "correct": correct,
        "attempted": accounts.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process; the JSON line sums the counts."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coinfo" / "__init__.py").is_file():
        print(f"error: no coinfo sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

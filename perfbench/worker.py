"""One cold workload pass in a fresh interpreter.

Usage: python3 worker.py JOB.json

The job names the source directory, the CLI argument lists to run in
order, whether to trace, and where to write the result.  The result holds
the clock reading once ``flatlimit.cli`` is imported (the parent subtracts
its own reading taken before the spawn), the wall time of the CLI calls,
the host-speed probes of both phases, the CLI exit codes, the peak
resident memory and, when traced, the spans.

The host is shared, and how fast it runs this process drifts by tens of
percent within seconds.  So every ``PROBE_INTERVAL_S`` a timer signal runs a
fixed probe computation (pure-Python big-integer arithmetic, the kind of
work mpmath's Python backend does) and records how long it took.  The
parent scales each phase's time by the median probe of that phase.  The
time spent in probes is subtracted from both phases.
"""
import json
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Probe durations per phase, and the total time spent probing."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {"setup": [], "run": []}
        self.phase = "setup"
        self.spent = 0.0
        self._busy = False

    def __call__(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        x = 1
        for i in range(400):
            x = (x * 1000003 + i) % (1 << 512)
            x ^= x * x >> 500
        end = time.perf_counter()
        self.samples[self.phase].append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    probe = SpeedProbe()
    probe.start()
    with open(sys.argv[1]) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    import flatlimit.cli as cli

    ready = time.perf_counter()
    setup_probe_s = probe.spent
    recorder = None
    main_fn = cli.main
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        main_fn = recorder.wrap(spans.CLI_SPAN, cli.main)
    probe.phase = "run"
    start = time.perf_counter()
    codes = [main_fn(argv) for argv in job["argv"]]
    run_s = time.perf_counter() - start - (probe.spent - setup_probe_s)
    probe.stop()
    result = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        "run_s": run_s,
        "probes": probe.samples,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans if recorder is not None else None,
    }
    with open(job["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()

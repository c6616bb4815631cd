"""One lorentzlab CLI invocation in a fresh process, timed from the inside.

    python3 perfbench/child.py TIMING_JSON MODE -- CLI ARGS...

MODE is ``run`` (full command, untraced), ``trace`` (full command with the
spans of ``spans.py`` installed; the trace goes to TIMING_JSON + ".trace")
or ``setup`` (stop as soon as config validation returns).  The child writes
``{"setup_end", "end", "maxrss_kb", "module"}`` to TIMING_JSON; the
times are CLOCK_MONOTONIC readings, the same clock the parent reads when it
spawns this process, so ``setup_end - spawn`` is the set-up time.
"""

import sys
import time


class _SetupDone(Exception):
    """Raised out of cli.main once validation returns (MODE=setup)."""


def main():
    timing_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        sys.exit("usage: child.py TIMING_JSON run|trace|setup -- CLI ARGS...")
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    from lorentzlab import cli
    marks = {}
    validate = cli.validate_config          # the traced wrapper in trace mode

    def timed_validate(*args, **kwargs):
        errors = validate(*args, **kwargs)
        marks["setup_end"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return errors

    cli.validate_config = timed_validate
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    marks["end"] = time.monotonic()
    sys.stdout.flush()

    import json
    import resource
    if tracer is not None:
        tracer.dump(timing_path + ".trace")
    marks.update(module=cli.__file__,
                 maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(timing_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

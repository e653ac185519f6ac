"""Run the spectra CLI with spans recorded around the package's public
functions in every process that computes sweep rows:

    PERFBENCH_SPANS_DIR=<dir> PYTHONPATH=src:perfbench \
        python3 perfbench/cli_traced.py sweep --N 5 --g-from=-1 --g-to=1 --g-step=0.5

Each row's spans are written to <dir>/<pid>-<n>.json as the row ends.
"""

import json
import os
import sys
from pathlib import Path

from spans import Tracer

_state = {}


def _tracer():
    """The process's tracer, installed on first use (pool workers that were
    spawned rather than forked arrive here without one)."""
    if "tracer" not in _state:
        import anharmonic.cli as cli

        _state["row"] = cli._sweep_worker
        _state["tracer"] = Tracer()
        _state["tracer"].install()
        _state["seq"] = 0
    return _state["tracer"]


def traced_sweep_worker(task):
    tracer = _tracer()
    try:
        return tracer.call("cli.sweep_row", _state["row"], task)
    finally:
        _state["seq"] += 1
        path = Path(os.environ["PERFBENCH_SPANS_DIR"]) / f"{os.getpid()}-{_state['seq']}.json"
        path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
        tracer.spans.clear()


if __name__ == "__main__":
    import anharmonic.cli as cli

    # the pool pickles the row function by module name, so it must come from
    # the importable module, not from __main__
    import cli_traced

    cli_traced._tracer()
    cli._sweep_worker = cli_traced.traced_sweep_worker
    sys.exit(cli.main(sys.argv[1:]))

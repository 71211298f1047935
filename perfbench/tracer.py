"""Outside-in span tracer for the sentimetrics pipeline.

The tracer wraps public functions of the ``sentimetrics`` modules by
replacing module attributes, so the program itself is not edited: a call
that goes through the module (``factors.load_panel(...)`` from the CLI, or
``estimate_exposures(...)`` from inside ``eventstudy``) lands in the
wrapper.  Each call becomes a span ``[id, parent, name, start, end, counts]``
kept in memory and written out once, at the end.

A function missing from the traced commit is recorded as absent instead of
failing, so the same benchmark can run against older and newer commits.

Run as a script to trace one CLI call in a fresh process:

    python perfbench/tracer.py SPANS.json all --config run_config.json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _tokens(args, result):
    return {"tokens": sum(len(day.tokens) for day in result)}


def _stock_events(args, result):
    return {"events": len(result[0])}


def _event_study(args, result):
    return {
        "attempted": len(args[0]),
        "estimated": sum(len(paths) for paths in result.ar_paths.values()),
    }


def _logit(args, result):
    return {"iterations": result.n_iter}


# module -> {public function: counter or None}.  A counter turns the call's
# positional arguments and result into counts stored on the span.
TRACED = {
    "synthetic": {"gen_dataset": None, "write_dataset": None},
    "corpus": {"load_transcripts": None, "build_days": _tokens, "extract_mentions": None},
    "sentiment": {"score_day": None, "build_stock_events": _stock_events},
    "factors": {
        "load_panel": None,
        "construct_factors": None,
        "load_controls": None,
        "read_factors_csv": None,
    },
    "eventstudy": {
        "run_event_study": _event_study,
        "estimate_exposures": None,
        "compute_ar": None,
        "pool_aar_caar": None,
    },
    "timing": {
        "build_signal": None,
        "r2_scan": None,
        "backtest_strategy": None,
        "write_backtest_csv": None,
    },
    "econometrics": {"run_timing_regressions": None, "fit_logit": _logit},
}


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [span_id, parent, name, time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.absent.append(f"{name}:counts")
            return result

        return traced

    def install(self, modules=None) -> None:
        """Wrap the TRACED functions of the given modules (default: all, plus the CLI)."""
        for mod_name in modules or TRACED:
            mod = importlib.import_module(f"sentimetrics.{mod_name}")
            for fn_name, counter in TRACED[mod_name].items():
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.absent.append(f"{mod_name}.{fn_name}")
                else:
                    setattr(mod, fn_name, self.wrap(f"{mod_name}.{fn_name}", fn, counter))
        if modules is None:
            self._install_cli()

    def _install_cli(self) -> None:
        cli = importlib.import_module("sentimetrics.cli")
        stage_funcs = getattr(cli, "STAGE_FUNCS", None)
        if stage_funcs is None:
            self.absent.append("cli.STAGE_FUNCS")
        else:
            for stage, fn in list(stage_funcs.items()):
                stage_funcs[stage] = self.wrap(f"cli.stage.{stage}", fn)
        if hasattr(cli, "run_stages"):
            cli.run_stages = self.wrap("cli.run_stages", cli.run_stages)
        else:
            self.absent.append("cli.run_stages")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from sentimetrics import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

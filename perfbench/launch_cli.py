"""Traced stand-in for `python -m watchlab.cli`.

Usage: launch_cli.py SPANS_JSON SUBCOMMAND [ARGS...]

Times `import watchlab.cli`, wraps the layers (see tracing.py), runs the
subcommand through `watchlab.cli.main` and writes this process's spans to
SPANS_JSON before exiting with the subcommand's exit code.
"""

import json
import sys
import traceback

from tracing import SpanRecorder, instrumented


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    rec = SpanRecorder()
    with rec.span("cli.import"):
        import watchlab.cli
    code = 0
    with instrumented(rec), rec.span("cli." + args[0].replace("-", "_")):
        try:
            watchlab.cli.main(args=args, prog_name="watchlab")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the spans are still written; the failure is the exit code
            traceback.print_exc()
            code = 1
    if code:
        rec.count("cli.failures")
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(rec.to_json(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

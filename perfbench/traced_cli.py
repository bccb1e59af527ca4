"""Run the amu-spectra CLI with spans recorded around each layer.

Usage: python perfbench/traced_cli.py SPANS.json <amu-spectra arguments...>

The spans are written to SPANS.json when the command returns; the exit
code is the CLI's own.
"""
import sys

import tracing

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from amu_spectra import cli

    code = cli.main(argv)
    tracing.dump(recorder, out_path)
    sys.exit(code)

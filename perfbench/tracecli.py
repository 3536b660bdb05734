"""Run the refl2 command line with spans recorded around its layers.

    python3 perfbench/tracecli.py OUT SAMPLE verify --n 3 --d 0 --quiet

Behaves as `python -m refl2.cli verify ...` and exits with its code;
the spans of sample number SAMPLE go to OUT (see spans.Tracer.dump).
"""

import sys

from spans import Tracer


def main() -> int:
    out, sample, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.sample = sample
    tracer.install()
    import refl2.cli

    code = refl2.cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The process entry of `catb2` and `python -m catb2`.  Nothing catb2 builds is cyclic
(tests/test_cli.py checks that a sweep leaves no cyclic garbage), so the process and its
`--jobs` workers run without the cyclic collector, and shutdown skips the frozen heap."""

import gc
import sys


def main() -> int:
    gc.disable()
    from . import cli  # imported with the collector off as well
    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())

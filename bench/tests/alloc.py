"""Helper run through ``bench/child.py``: touch N MiB, then exit."""


def main(argv):
    b"\1" * (int(argv[0]) * 1024 * 1024)
    return 0

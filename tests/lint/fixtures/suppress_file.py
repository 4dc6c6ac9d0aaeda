# repro-lint: disable-file=DET003
"""A file-wide disable covers every occurrence of the code."""


def first() -> None:
    for item in {object(), object()}:
        print(item)


def second() -> None:
    for item in {object(), object()}:
        print(item)

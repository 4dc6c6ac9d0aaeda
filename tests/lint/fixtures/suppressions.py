"""Every violation in this fixture is covered by a disable comment."""


def same_line() -> None:
    for item in {object(), object()}:  # repro-lint: disable=DET003
        print(item)


def above() -> None:
    # repro-lint: disable=DET003,DET999
    for item in {object(), object()}:
        print(item)


def with_rationale() -> None:
    for item in {object(), object()}:  # repro-lint: disable=DET003 - rationale after the code list
        print(item)

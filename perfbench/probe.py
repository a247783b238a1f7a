"""Set-up probe: `symder train` stopped where its descent would begin.

    python3 perfbench/probe.py train --data DIR --out RUN --steps N ...

The arguments are those of `symder train`. The probe runs the program's own
`cli.main` with `train.fit` and `EmbeddingRecovery.fit` replaced, from
outside, by a stop that raises on entry. So the process imports symder,
loads the config and the dataset and builds the problem (the
finite-difference targets plus the encoder or the staged embedding) exactly
as `symder train` does, and ends before the first step. run.py times the
process for `setup_s`, and calls `problem` in its own process to get the
built problem for the gradient check.
"""

import contextlib
import sys

from symder import cli, recover, train


class Ready(Exception):
    """Raised by the stop with what the descent was handed: the
    `train.Problem` on the joint path, the `EmbeddingRecovery` on the staged
    one."""

    def __init__(self, problem):
        super().__init__("training was about to start")
        self.problem = problem


def _stop(problem, *args, **kwargs):
    raise Ready(problem)


@contextlib.contextmanager
def _stopped():
    saved = train.fit, recover.EmbeddingRecovery.fit
    train.fit = recover.EmbeddingRecovery.fit = _stop
    try:
        yield
    finally:
        train.fit, recover.EmbeddingRecovery.fit = saved


def problem(argv):
    """The problem `symder train argv` builds before its first step."""
    with _stopped():
        try:
            code = cli.main(argv)
        except Ready as r:
            return r.problem
    raise RuntimeError(f"symder {' '.join(argv)} exited {code} before "
                       "training started")


def main():
    problem(sys.argv[1:])


if __name__ == "__main__":
    main()

"""Shared engine/output option dataclasses.

Every engine-backed subcommand used to hand-roll the same
``--workers`` / ``--out`` / ``--no-resume`` argparse wiring through a
private ``_add_engine_options`` helper copy-wired across the CLI
module.  These two dataclasses are now the single home of that
vocabulary, consumed from *both* directions:

- the argparse wiring (``add_to_parser`` declares the flags,
  ``from_args`` reads them back), and
- the campaign layer (:mod:`repro.campaign.spec`), where the same
  values arrive from a spec file's ``[defaults]`` table instead of
  from flags.

Keeping one definition means the worker-resolution rule (``0`` = one
per CPU, ``1`` = serial) and the checkpoint/resume semantics cannot
drift between subcommands.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Optional

#: The default ``--out`` help used when a subcommand does not override
#: it; individual commands append what one record means for them.
DEFAULT_OUT_HELP = (
    "JSONL checkpoint: one canonical record per execution; rerunning "
    "with the same file resumes an interrupted run"
)


@dataclass
class EngineOptions:
    """Worker fan-out for engine-backed commands.

    ``workers == 0`` means one worker per CPU; ``1`` means serial (the
    engine runs tasks inline, no pool).  ``resolved`` applies that rule.
    """

    workers: int = 0

    @property
    def resolved(self) -> int:
        return self.workers or os.cpu_count() or 1

    @staticmethod
    def add_to_parser(
        parser: argparse.ArgumentParser,
        *,
        default: int = 0,
        help: str = (
            "worker processes (default: one per CPU; 1 = serial)"
        ),
    ) -> None:
        parser.add_argument(
            "--workers", type=_worker_count, default=default,
            metavar="W", help=help,
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "EngineOptions":
        return cls(workers=args.workers)


def _worker_count(text: str) -> int:
    """``--workers`` values: an int >= 0 (argparse exits 2 otherwise)."""
    try:
        workers = int(text)
    except ValueError:
        workers = -1
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"need an int >= 0 (0 = one per CPU), got {text!r}"
        )
    return workers


@dataclass
class OutputOptions:
    """Checkpoint path and resume behaviour for engine-backed commands.

    ``resume=True`` (the default) reuses any valid records already in
    ``out``; ``--no-resume`` reruns everything.
    """

    out: Optional[str] = None
    resume: bool = True

    @staticmethod
    def add_to_parser(
        parser: argparse.ArgumentParser,
        *,
        out_help: str = DEFAULT_OUT_HELP,
        include_resume: bool = True,
    ) -> None:
        parser.add_argument(
            "--out", default=None, metavar="FILE", help=out_help
        )
        if include_resume:
            parser.add_argument(
                "--no-resume", action="store_true",
                help="ignore any existing records in --out and rerun "
                "everything",
            )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "OutputOptions":
        return cls(
            out=args.out,
            resume=not getattr(args, "no_resume", False),
        )

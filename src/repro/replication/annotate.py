"""Planting and measuring semi-static prediction annotations.

After replication every conditional branch carries a ``predict`` bit.
``annotate_profile_predictions`` plants the plain profile prediction on
unannotated branches; ``measure_annotated`` runs the program and counts
how often the planted bits are wrong — the end-to-end check that the
replicated program achieves the misprediction rate the state-machine
scoring promised.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Sequence

from ..ir import BranchSite, Program
from ..profiling import ProfileData


def annotate_profile_predictions(
    program: Program, profile: ProfileData, default: bool = True
) -> int:
    """Set ``predict`` to the profile majority on every *unannotated*
    branch; returns the number of branches annotated.

    Branches the training run never executed get *default*.
    """
    count = 0
    for function in program:
        for block in function:
            branch = block.branch
            if branch is None or branch.predict is not None:
                continue
            site = BranchSite(function.name, block.label)
            bias = profile.bias(site)
            block.terminator = dataclasses.replace(
                branch, predict=default if bias is None else bias
            )
            count += 1
    return count


def clear_predictions(program: Program) -> None:
    """Remove all ``predict`` annotations."""
    for function in program:
        for block in function:
            branch = block.branch
            if branch is not None and branch.predict is not None:
                block.terminator = dataclasses.replace(branch, predict=None)


@dataclass
class AnnotatedMeasurement:
    """Misprediction measurement of an annotated program run."""

    events: int
    mispredictions: int
    per_site: Dict[BranchSite, tuple]

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.events if self.events else 0.0


def measure_annotated(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 100_000_000,
    default: bool = True,
) -> AnnotatedMeasurement:
    """Run *program* and score its planted ``predict`` bits.

    Unannotated branches are scored with *default*.
    """
    from ..interp.compiled import execute

    predictions: Dict[BranchSite, bool] = {}
    for function in program:
        for block in function:
            branch = block.branch
            if branch is None:
                continue
            site = BranchSite(function.name, block.label)
            predictions[site] = branch.predict if branch.predict is not None else default

    execution = execute(program, args, input_values, max_steps)
    events = wrong = 0
    per_site: Dict[BranchSite, tuple] = {}
    for site, (not_taken, taken) in execution.site_outcomes().items():
        predict = predictions[site]
        # An event is missed when the prediction *is not* its outcome.
        missed = (predict is not True) * taken + (predict is not False) * not_taken
        events += not_taken + taken
        wrong += missed
        per_site[site] = (not_taken + taken, missed)
    return AnnotatedMeasurement(events, wrong, per_site)

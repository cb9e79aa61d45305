"""Detection latency: how many crawl events until an attack is caught.

The batch metrics (:mod:`repro.eval.metrics`) ask *whether* the mass
estimator catches a spam structure; a temporal attack asks *when*.  A
gradually grown farm is invisible by construction for its first many
events — the whole point of staying under ρ — so the figure of merit is
the number of stream events between the attack's onset and the first
committed window whose scores put the target over the detector's gate:

* ``expired-takeover`` / ``gradual-farm`` — the Algorithm 2 gate the
  serving daemon's ``top`` queries use: scaled PageRank ≥ ρ **and**
  relative mass ≥ τ.
* ``stale-core`` — the core-audit gate (:func:`repro.eval.audit_core`):
  the stale member's relative mass crossing the audit's threshold
  (:data:`~repro.eval.audit.DEFAULT_RELATIVE_MASS_THRESHOLD`), which
  is what flags a supposedly-good host for removal from ``Ṽ⁺``.

:class:`LatencyProbe` attaches to a
:class:`~repro.serve.stream.StreamIngestor`'s ``on_commit`` hook and
evaluates the gates against every published epoch, so the measurement
uses exactly the scores the daemon serves — no side re-estimation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..synth.crawler import TemporalAttack
from .audit import DEFAULT_RELATIVE_MASS_THRESHOLD

__all__ = ["AttackOutcome", "LatencyProbe"]


class AttackOutcome:
    """Detection verdict for one temporal attack."""

    __slots__ = (
        "name",
        "kind",
        "target",
        "onset_id",
        "caught",
        "caught_at_id",
        "events_until_caught",
        "windows_until_caught",
    )

    def __init__(self, attack: TemporalAttack) -> None:
        self.name = attack.name
        self.kind = attack.kind
        self.target = int(attack.target)
        self.onset_id = int(attack.onset_id)
        self.caught = False
        self.caught_at_id: Optional[int] = None
        self.events_until_caught: Optional[int] = None
        self.windows_until_caught: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "onset_id": self.onset_id,
            "caught": self.caught,
            "caught_at_id": self.caught_at_id,
            "events_until_caught": self.events_until_caught,
            "windows_until_caught": self.windows_until_caught,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = (
            f"caught after {self.events_until_caught} events"
            if self.caught
            else "not caught"
        )
        return f"AttackOutcome({self.name}, {status})"


class LatencyProbe:
    """Watches committed stream windows for attack-detection crossings.

    Parameters
    ----------
    attacks:
        The stream's scripted ground truth
        (:attr:`~repro.synth.crawler.CrawlStream.attacks`).
    rho / tau:
        Algorithm 2 gates for the spam-promotion attacks.  The paper's
        ρ = 10 (scaled PageRank) assumes web-scale mass; small worlds
        need a smaller ρ for the gate to be reachable at all.

    Attach :meth:`observe` as the ingestor's ``on_commit`` hook, or
    call it manually with ``(info, epoch)`` after each apply.
    """

    def __init__(
        self,
        attacks: Sequence[TemporalAttack],
        *,
        rho: float = 10.0,
        tau: float = 0.98,
    ) -> None:
        self.rho = float(rho)
        self.tau = float(tau)
        self.outcomes: Dict[str, AttackOutcome] = {
            attack.name: AttackOutcome(attack) for attack in attacks
        }
        self.windows_seen = 0

    def observe(self, info: dict, epoch) -> None:
        """Check every still-open attack against one committed epoch."""
        self.windows_seen += 1
        estimates = epoch.estimates
        relative = estimates.relative
        scaled = estimates.scaled_pagerank()
        last_id = int(info["last_id"])
        for outcome in self.outcomes.values():
            if outcome.caught or last_id < outcome.onset_id:
                continue
            target = outcome.target
            if outcome.kind == "stale-core":
                hit = relative[target] >= DEFAULT_RELATIVE_MASS_THRESHOLD
            else:
                hit = (
                    scaled[target] >= self.rho
                    and relative[target] >= self.tau
                )
            if not bool(hit):
                continue
            outcome.caught = True
            outcome.caught_at_id = last_id
            outcome.events_until_caught = last_id - outcome.onset_id
            outcome.windows_until_caught = self.windows_seen

    def report(self) -> List[dict]:
        """Per-attack verdicts, in scripted order."""
        return [outcome.as_dict() for outcome in self.outcomes.values()]

    def all_caught(self) -> bool:
        return all(o.caught for o in self.outcomes.values())

    def latency(self, name: str) -> Optional[int]:
        return self.outcomes[name].events_until_caught

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        caught = sum(o.caught for o in self.outcomes.values())
        return f"LatencyProbe({caught}/{len(self.outcomes)} caught)"

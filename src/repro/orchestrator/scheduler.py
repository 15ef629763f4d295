"""Durable multi-campaign scheduling over a bounded worker pool.

The :class:`Orchestrator` composes the pieces the pipeline already
proved one campaign at a time — fingerprinted task journals, checksummed
envelopes, pool supervision — into a long-lived service running *many*
campaigns:

* **Write-ahead everything.**  Submissions and state transitions hit the
  :class:`~repro.orchestrator.ledger.CampaignLedger` before memory, so a
  ``kill -9`` at any instant loses nothing: construction replays the
  ledger and rebuilds the queue byte-exactly, requeueing campaigns that
  died holding a lease.
* **Lease-based execution.**  A running campaign holds a heartbeat
  lease renewed at every task boundary (via
  :func:`~repro.core.tasks.task_checkpoint`) and every phase boundary
  (the engine's ``on_phase`` hook).  A lease that is not renewed — the
  ``lease.expire`` fault site suppresses renewal, keyed per lease
  incarnation — expires and the campaign requeues, resuming from its
  TaskJournals byte-identically.  A per-campaign restart budget
  circuit-breaks repeat offenders to ``failed``.
* **Cooperative pause / cancel.**  ``pause``/``cancel`` on a running
  campaign set an interrupt the heartbeat turns into a
  :class:`CampaignPaused`/:class:`CampaignCancelled` at the next
  boundary; executors tear down on the way out (futures cancelled, pool
  workers terminated by the supervisor), so no workers leak.  These ride
  ``BaseException``, not ``Exception``, so task supervision and
  degrade-mode studies cannot swallow them.
* **Shared content-addressed store.**  All campaigns share one phase
  cache directory and one journal root; both are partitioned by config
  fingerprint, so equal-fingerprint campaigns deduplicate each other's
  work (observable as cache disk hits and journal replay hits in the
  per-campaign metrics) while quarantine stays namespaced per campaign.

Campaign states: ``queued → leased → running`` and from there to
``paused`` (resumable), ``cancelled``, ``done`` or ``failed``; a lease
expiry moves ``running → queued`` with ``restarts`` incremented.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import faults
from repro.core.chaos import artifact_digests
from repro.core.config import StudyConfig
from repro.core.engine import PhaseCache, config_fingerprint
from repro.core.study import Study
from repro.core.tasks import DEFAULT_RESTART_BUDGET, task_checkpoint
from repro.internet.population import PopulationConfig
from repro.net.errors import (
    ConfigError,
    OrchestratorBusyError,
    OrchestratorError,
    ReproError,
)
from repro.orchestrator.ledger import CampaignLedger

__all__ = [
    "CAMPAIGN_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "CampaignInterrupt",
    "CampaignPaused",
    "CampaignCancelled",
    "LeaseExpired",
    "CampaignSpec",
    "Campaign",
    "Orchestrator",
]

#: Every state a campaign can be recorded in.
CAMPAIGN_STATES: Tuple[str, ...] = (
    "queued", "leased", "running", "paused", "cancelled", "done", "failed",
)

#: States that occupy (or will occupy) a worker slot.
ACTIVE_STATES: Tuple[str, ...] = ("queued", "leased", "running")

#: States a campaign never leaves.
TERMINAL_STATES: Tuple[str, ...] = ("cancelled", "done", "failed")


class CampaignInterrupt(BaseException):
    """Cooperative control flow out of a running campaign.

    Deliberately **not** an :class:`Exception`: task supervision retries
    and wraps ``Exception`` into ``TaskFailure``, and a degrade-mode
    study swallows phase failures — a pause or cancel must ride above
    both, or it would be recorded as a task crash instead of obeyed.
    """


class CampaignPaused(CampaignInterrupt):
    """Raised at a task/phase boundary when a pause was requested."""


class CampaignCancelled(CampaignInterrupt):
    """Raised at a task/phase boundary when a cancel was requested."""


class LeaseExpired(CampaignInterrupt):
    """Raised when the campaign's heartbeat lease lapsed mid-run."""


@dataclass(frozen=True)
class CampaignSpec:
    """What one tenant asked the orchestrator to run.

    A deliberately small, JSON-round-trippable surface over
    :meth:`~repro.core.config.StudyConfig.quick`: enough to scale a
    campaign and place it in the queue.  ``priority`` schedules but does
    not fingerprint — two campaigns differing only in priority still
    share cached artifacts.
    """

    seed: int = 7
    scale: int = 4096
    honeypot_scale: int = 256
    shards: int = 4
    workers: int = 2
    retries: int = 2
    executor: str = "serial"
    priority: int = 0

    def to_config(
        self, journal_dir: str, quarantine_namespace: str = ""
    ) -> StudyConfig:
        """The full study config this spec stands for (shared-store form)."""
        config = StudyConfig.quick(seed=self.seed)
        config.population = PopulationConfig(
            seed=self.seed,
            scale=self.scale,
            honeypot_scale=self.honeypot_scale,
        )
        config.scan.shards = self.shards
        config.attacks.workers = self.workers
        config.telescope.workers = self.workers
        config.scan.retries = self.retries
        config.attacks.retries = self.retries
        config.telescope.retries = self.retries
        config.executor = self.executor
        for sub in (config.scan, config.attacks, config.telescope):
            sub.executor = self.executor
        config.journal_dir = journal_dir
        config.resume = True
        config.quarantine_namespace = quarantine_namespace
        config.validate()
        return config

    def fingerprint(self) -> str:
        """The content hash of the study this spec produces.

        Pure in the spec's *science* knobs: the deployment fields
        (journal dir, namespace, executor, workers, retries) are
        ``compare=False`` on the config and never reach the hash, so
        equal-fingerprint campaigns are exactly the ones whose artifacts
        are interchangeable.
        """
        return config_fingerprint(self.to_config(journal_dir="ignored"))

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown campaign spec field(s): {', '.join(sorted(unknown))}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as error:
            raise ConfigError(f"bad campaign spec: {error}") from None


@dataclass
class Campaign:
    """One campaign's live scheduling state (the ledger's replayed view)."""

    id: str
    seq: int
    spec: CampaignSpec
    fingerprint: str
    state: str = "queued"
    restarts: int = 0
    #: Pending cooperative interrupt: ``"pause"``/``"cancel"``/``"expire"``.
    interrupt: Optional[str] = None
    #: Monotonic deadline of the current lease (meaningful while running).
    lease_deadline: float = 0.0
    reason: str = "submitted"
    error: Optional[str] = None
    digests: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)


class Orchestrator:
    """Durable scheduler for many concurrent studies over shared storage.

    Parameters
    ----------
    state_dir:
        Root of all durable state: the write-ahead ledger, the shared
        phase-cache directory and the shared journal root all live here.
        Reconstructing with the same directory resumes exactly where the
        previous incarnation stopped.
    max_active:
        Worker threads — campaigns running concurrently.
    max_campaigns:
        Admission cap on campaigns in non-terminal states; beyond it
        ``submit`` raises :class:`~repro.net.errors.OrchestratorBusyError`.
    lease_timeout:
        Seconds a running campaign's lease stays valid without a
        heartbeat renewal.
    restart_budget:
        Lease expiries (or crash recoveries) a campaign survives before
        it circuit-breaks to ``failed``.
    monitor_interval:
        The lease monitor's scan period (defaults to a quarter of the
        lease timeout).
    retry_after:
        The back-off hint carried by admission refusals.
    """

    def __init__(
        self,
        state_dir: os.PathLike,
        *,
        max_active: int = 2,
        max_campaigns: int = 8,
        lease_timeout: float = 30.0,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        monitor_interval: Optional[float] = None,
        retry_after: float = 30.0,
    ) -> None:
        if max_active < 1:
            raise ConfigError(f"max_active must be >= 1, got {max_active}")
        if max_campaigns < 1:
            raise ConfigError(
                f"max_campaigns must be >= 1, got {max_campaigns}"
            )
        if lease_timeout <= 0:
            raise ConfigError(
                f"lease_timeout must be > 0 seconds, got {lease_timeout}"
            )
        self.state_dir = os.path.expanduser(os.fspath(state_dir))
        self.max_active = max_active
        self.max_campaigns = max_campaigns
        self.lease_timeout = lease_timeout
        self.restart_budget = max(0, restart_budget)
        self.monitor_interval = (
            monitor_interval if monitor_interval is not None
            else max(0.05, lease_timeout / 4.0)
        )
        self.retry_after = retry_after
        os.makedirs(self.state_dir, exist_ok=True)
        self.ledger = CampaignLedger(os.path.join(self.state_dir, "ledger.log"))
        self.store_dir = os.path.join(self.state_dir, "store")
        self.cache_dir = os.path.join(self.store_dir, "cache")
        self.journal_dir = os.path.join(self.store_dir, "journals")
        self.campaigns: Dict[str, Campaign] = {}
        #: Submissions answered by an existing equal-fingerprint campaign.
        self.dedup_hits = 0
        #: Campaigns requeued because a previous incarnation died leased.
        self.recovered = 0
        self._heap: List[Tuple[int, int, str]] = []
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._closed = False
        self._stop = threading.Event()
        self._next_id = 1
        with self._lock:  # _transition notifies the work condition
            self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"orchestrator-worker-{index}",
                daemon=True,
            )
            for index in range(self.max_active)
        ]
        for thread in self._threads:
            thread.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="orchestrator-monitor", daemon=True
        )
        self._monitor.start()

    # -- durable state -----------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the queue from the ledger (the crash-recovery path)."""
        for record in self.ledger.replay():
            rtype = record.get("type")
            if rtype == "submit":
                campaign_id = str(record.get("campaign"))
                spec = CampaignSpec.from_dict(dict(record.get("spec") or {}))
                self.campaigns[campaign_id] = Campaign(
                    id=campaign_id,
                    seq=int(record.get("seq", 0)),
                    spec=spec,
                    fingerprint=str(record.get("fingerprint", "")),
                )
                digits = campaign_id.lstrip("o")
                if digits.isdigit():
                    self._next_id = max(self._next_id, int(digits) + 1)
            elif rtype == "transition":
                campaign = self.campaigns.get(str(record.get("campaign")))
                if campaign is None:
                    continue  # transition for an unknown id: ignore
                campaign.state = str(record.get("state", campaign.state))
                campaign.restarts = int(
                    record.get("restarts", campaign.restarts)
                )
                campaign.reason = str(record.get("reason", campaign.reason))
                if record.get("error") is not None:
                    campaign.error = str(record["error"])
                if record.get("digests"):
                    campaign.digests = dict(record["digests"])
                if record.get("metrics"):
                    campaign.metrics = dict(record["metrics"])
        for campaign in sorted(
            self.campaigns.values(), key=lambda entry: entry.seq
        ):
            if campaign.state in ("leased", "running"):
                # The previous incarnation died holding this lease.
                campaign.restarts += 1
                if campaign.restarts > self.restart_budget:
                    self._transition(
                        campaign, "failed", reason="restart-budget",
                        error=(
                            f"circuit-broken after {campaign.restarts} "
                            "lease recoveries"
                        ),
                    )
                else:
                    self._transition(
                        campaign, "queued", reason="lease-recovered"
                    )
                    self.recovered += 1
            if campaign.state == "queued":
                heapq.heappush(self._heap, self._entry(campaign))

    def _entry(self, campaign: Campaign) -> Tuple[int, int, str]:
        # Max-priority first; submission order breaks ties.
        return (-campaign.spec.priority, campaign.seq, campaign.id)

    def _transition(
        self,
        campaign: Campaign,
        state: str,
        *,
        reason: str = "",
        error: Optional[str] = None,
        digests: Optional[Dict[str, str]] = None,
        metrics: Optional[Dict[str, object]] = None,
    ) -> None:
        """Ledger first, memory second (caller holds the lock)."""
        record: Dict[str, object] = {
            "type": "transition",
            "campaign": campaign.id,
            "state": state,
            "reason": reason,
            "restarts": campaign.restarts,
        }
        if error is not None:
            record["error"] = error
        if digests:
            record["digests"] = digests
        if metrics:
            record["metrics"] = metrics
        self.ledger.append(record)
        campaign.state = state
        campaign.reason = reason
        if error is not None:
            campaign.error = error
        if digests:
            campaign.digests = dict(digests)
        if metrics:
            campaign.metrics = dict(metrics)
        self._work.notify_all()

    # -- admission ---------------------------------------------------------

    def submit(self, spec: CampaignSpec, *, reuse: bool = False) -> str:
        """Admit one campaign; returns its id.

        ``reuse=True`` answers with an existing non-cancelled, non-failed
        campaign of equal config fingerprint instead of admitting a
        duplicate (counted in :attr:`dedup_hits`) — the idempotent shape
        a restart-and-resubmit client wants.  Admission is refused with
        :class:`~repro.net.errors.OrchestratorBusyError` once
        ``max_campaigns`` campaigns sit in non-terminal states.
        """
        fingerprint = spec.fingerprint()
        with self._work:
            if self._closed:
                raise OrchestratorError(
                    "orchestrator is shut down; cannot submit"
                )
            if reuse:
                for campaign in sorted(
                    self.campaigns.values(), key=lambda entry: entry.seq
                ):
                    if (campaign.fingerprint == fingerprint
                            and campaign.state not in ("cancelled", "failed")):
                        self.dedup_hits += 1
                        return campaign.id
            admitted = sum(
                1 for campaign in self.campaigns.values()
                if campaign.state not in TERMINAL_STATES
            )
            if admitted >= self.max_campaigns:
                raise OrchestratorBusyError(
                    f"admission refused: {admitted} campaign(s) already "
                    f"admitted (max_campaigns={self.max_campaigns})",
                    retry_after=self.retry_after,
                )
            campaign_id = f"o{self._next_id}"
            self._next_id += 1
            seq = self.ledger.append({
                "type": "submit",
                "campaign": campaign_id,
                "spec": spec.to_dict(),
                "priority": spec.priority,
                "fingerprint": fingerprint,
            })
            campaign = Campaign(
                id=campaign_id, seq=seq, spec=spec, fingerprint=fingerprint,
            )
            self.campaigns[campaign_id] = campaign
            heapq.heappush(self._heap, self._entry(campaign))
            self._work.notify()
            return campaign_id

    # -- lifecycle controls ------------------------------------------------

    def _require(self, campaign_id: str) -> Campaign:
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            raise OrchestratorError(f"unknown campaign {campaign_id!r}")
        return campaign

    def pause(self, campaign_id: str) -> Dict[str, object]:
        """Pause: immediate for queued, drained at the next boundary when
        running.  Returns the campaign's status document."""
        with self._work:
            campaign = self._require(campaign_id)
            if campaign.state == "queued":
                self._transition(campaign, "paused", reason="pause-requested")
            elif campaign.state in ("leased", "running"):
                campaign.interrupt = "pause"
            elif campaign.state != "paused":
                raise OrchestratorError(
                    f"campaign {campaign_id} is {campaign.state}; "
                    "only queued or running campaigns can pause"
                )
            return self.status(campaign_id)

    def resume(self, campaign_id: str) -> Dict[str, object]:
        """Resume a paused campaign (it requeues and continues from its
        journals, byte-identically).  Also clears a not-yet-drained
        pause request."""
        with self._work:
            campaign = self._require(campaign_id)
            if (campaign.state in ("leased", "running")
                    and campaign.interrupt == "pause"):
                campaign.interrupt = None  # pause never drained; undo it
            elif campaign.state == "paused":
                self._transition(campaign, "queued", reason="resumed")
                heapq.heappush(self._heap, self._entry(campaign))
                self._work.notify()
            elif campaign.state not in ACTIVE_STATES:
                raise OrchestratorError(
                    f"campaign {campaign_id} is {campaign.state}; "
                    "only paused campaigns can resume"
                )
            return self.status(campaign_id)

    def cancel(self, campaign_id: str) -> Dict[str, object]:
        """Cancel: immediate for queued/paused, torn down at the next
        boundary when running.  Terminal campaigns are left alone."""
        with self._work:
            campaign = self._require(campaign_id)
            if campaign.state in ("queued", "paused"):
                self._transition(
                    campaign, "cancelled", reason="cancel-requested"
                )
            elif campaign.state in ("leased", "running"):
                campaign.interrupt = "cancel"
            return self.status(campaign_id)

    # -- status ------------------------------------------------------------

    def get(self, campaign_id: str) -> Optional[Campaign]:
        with self._lock:
            return self.campaigns.get(campaign_id)

    def status(self, campaign_id: str) -> Dict[str, object]:
        """One campaign's status document (the HTTP/CLI shape)."""
        with self._lock:
            campaign = self._require(campaign_id)
            state = campaign.state
            if state in ("leased", "running") and campaign.interrupt:
                state = {
                    "pause": "pausing",
                    "cancel": "cancelling",
                    "expire": "expiring",
                }[campaign.interrupt]
            return {
                "id": campaign.id,
                "state": state,
                "recorded_state": campaign.state,
                "priority": campaign.spec.priority,
                "restarts": campaign.restarts,
                "fingerprint": campaign.fingerprint,
                "spec": campaign.spec.to_dict(),
                "reason": campaign.reason,
                "error": campaign.error,
                "digests": dict(campaign.digests),
                "metrics": dict(campaign.metrics),
            }

    def queue(self) -> Dict[str, object]:
        """The whole queue: ids grouped by state, scheduling order, knobs."""
        with self._lock:
            by_state: Dict[str, List[str]] = {
                state: [] for state in CAMPAIGN_STATES
            }
            for campaign in sorted(
                self.campaigns.values(), key=lambda entry: entry.seq
            ):
                by_state[campaign.state].append(campaign.id)
            order = sorted(
                (campaign for campaign in self.campaigns.values()
                 if campaign.state == "queued"),
                key=self._entry,
            )
            return {
                "max_active": self.max_active,
                "max_campaigns": self.max_campaigns,
                "lease_timeout": self.lease_timeout,
                "restart_budget": self.restart_budget,
                "campaigns": by_state,
                "order": [campaign.id for campaign in order],
                "dedup_hits": self.dedup_hits,
                "recovered": self.recovered,
                "ledger_records": len(self.ledger),
                "ledger_quarantined": len(self.ledger.quarantined),
                "store": {
                    "cache_dir": self.cache_dir,
                    "journal_dir": self.journal_dir,
                },
            }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no campaign is queued/leased/running (or timeout).

        Paused campaigns do not hold a drain open — they are stable and
        resumable across process restarts.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._work:
            while any(
                campaign.state in ACTIVE_STATES
                for campaign in self.campaigns.values()
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work.wait(remaining)
            return True

    def shutdown(
        self, *, cancel_running: bool = False, timeout: Optional[float] = None
    ) -> None:
        """Stop scheduling and join the worker threads.

        Running campaigns finish (their durable state survives either
        way) unless ``cancel_running`` asks for cooperative teardown at
        the next boundary.
        """
        with self._work:
            if self._closed:
                return
            self._closed = True
            if cancel_running:
                for campaign in self.campaigns.values():
                    if campaign.state in ("leased", "running"):
                        campaign.interrupt = "cancel"
            self._work.notify_all()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._monitor.join(timeout)

    # -- execution ---------------------------------------------------------

    def _pop_queued(self) -> Optional[Campaign]:
        """Highest-priority queued campaign (lazy-deleting stale entries)."""
        while self._heap:
            _, _, campaign_id = heapq.heappop(self._heap)
            campaign = self.campaigns.get(campaign_id)
            if campaign is not None and campaign.state == "queued":
                return campaign
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                campaign = self._pop_queued()
                while campaign is None and not self._closed:
                    self._work.wait()
                    campaign = self._pop_queued()
                if campaign is None:
                    return  # closed and nothing runnable
                campaign.interrupt = None
                campaign.lease_deadline = (
                    time.monotonic() + self.lease_timeout
                )
                self._transition(campaign, "leased", reason="scheduled")
            self._run_campaign(campaign)

    def _heartbeat(self, campaign: Campaign) -> None:
        """The task/phase-boundary hook: obey interrupts, renew the lease.

        Renewal is suppressed while a ``lease.expire`` verdict fires for
        this lease incarnation — keyed ``(campaign, restarts)``, one
        verdict per lease, so an expired-and-requeued campaign draws a
        fresh fate instead of expiring forever.
        """
        request = campaign.interrupt
        if request == "pause":
            raise CampaignPaused(campaign.id)
        if request == "cancel":
            raise CampaignCancelled(campaign.id)
        if request == "expire":
            raise LeaseExpired(campaign.id)
        now = time.monotonic()
        injector = faults.active()
        suppressed = (
            injector is not None
            and injector.would_fail(
                "lease.expire", campaign.id, campaign.restarts
            ) is not None
        )
        if suppressed:
            if now >= campaign.lease_deadline:
                raise LeaseExpired(campaign.id)
            return
        campaign.lease_deadline = now + self.lease_timeout

    def _run_campaign(self, campaign: Campaign) -> None:
        """One lease: run the study, translate the outcome to a state."""
        config = campaign.spec.to_config(
            self.journal_dir, quarantine_namespace=campaign.id
        )
        cache = PhaseCache(
            directory=self.cache_dir, quarantine_namespace=campaign.id
        )
        study = Study(config, cache=cache)
        study.engine.on_phase = lambda metric: self._heartbeat(campaign)
        with self._work:
            self._transition(campaign, "running", reason="leased")
        state: str
        reason: str
        error: Optional[str] = None
        digests: Optional[Dict[str, str]] = None
        try:
            with task_checkpoint(lambda: self._heartbeat(campaign)):
                results = study.run()
            digests = artifact_digests(results)
            state, reason = "done", "completed"
        except CampaignPaused:
            state, reason = "paused", "pause-drained"
        except CampaignCancelled:
            state, reason = "cancelled", "cancel-drained"
        except LeaseExpired:
            state, reason = "queued", "lease-expired"
        except ReproError as failure:
            state, reason = "failed", "error"
            error = f"{type(failure).__name__}: {failure}"
        except Exception as failure:  # noqa: BLE001 — the circuit breaker
            state, reason = "failed", "error"
            error = f"{type(failure).__name__}: {failure}"
        if cache.quarantined:
            study.metrics.record_quarantines(cache.quarantined)
        summary = study.metrics.summary()
        with self._work:
            campaign.interrupt = None
            if state == "queued":
                campaign.restarts += 1
                if campaign.restarts > self.restart_budget:
                    self._transition(
                        campaign, "failed", reason="restart-budget",
                        error=(
                            f"circuit-broken after {campaign.restarts} "
                            "lease expiries"
                        ),
                        metrics=summary,
                    )
                    return
                self._transition(
                    campaign, "queued", reason=reason, metrics=summary
                )
                heapq.heappush(self._heap, self._entry(campaign))
                self._work.notify()
                return
            self._transition(
                campaign, state, reason=reason, error=error,
                digests=digests, metrics=summary,
            )

    def _expire_leases(self) -> int:
        """Flag running campaigns whose lease lapsed (monitor duty).

        Cooperative: the flag turns into :class:`LeaseExpired` at the
        campaign's next boundary.  Returns how many were flagged.
        """
        flagged = 0
        with self._lock:
            now = time.monotonic()
            for campaign in self.campaigns.values():
                if (campaign.state in ("leased", "running")
                        and campaign.interrupt is None
                        and now >= campaign.lease_deadline):
                    campaign.interrupt = "expire"
                    flagged += 1
        return flagged

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.monitor_interval):
            self._expire_leases()

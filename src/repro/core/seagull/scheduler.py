"""Low-load backup-window selection with forecast and heuristic policies.

A policy sees a server's load history and picks the start hour of a
``window_hours``-long backup window for the next day.  Accuracy follows
the paper's framing: the choice is *correct* when the true load inside
the chosen window is within ``tolerance`` of the best achievable window
that day (choosing an equally-quiet window is not an error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.service import AutonomousService
from repro.ml import HoltWinters
from repro.workloads.usage import HOURS_PER_DAY, TenantTrace

if TYPE_CHECKING:
    from repro.obs.events import ObsEvent


@dataclass
class WindowChoice:
    """A chosen backup window for one server-day."""

    server_id: str
    day: int
    start_hour: int          # 0-23, start of the window within the day
    predicted_load: float
    actual_load: float
    optimal_load: float

    def is_correct(self, tolerance: float) -> bool:
        """Within ``tolerance`` (absolute load units) of the optimum."""
        return self.actual_load <= self.optimal_load + tolerance

    def to_events(self) -> "list[ObsEvent]":
        from repro.obs.events import ObsEvent, freeze_attributes

        return [
            ObsEvent(
                timestamp=float(self.day * HOURS_PER_DAY + self.start_hour),
                layer="service",
                source="seagull",
                kind="window",
                value=self.actual_load,
                attributes=freeze_attributes(
                    {"server": self.server_id, "start_hour": self.start_hour}
                ),
            )
        ]


class WindowPolicy(Protocol):
    """Forecast tomorrow's hourly load from history (length = 24)."""

    def forecast_day(self, history: np.ndarray) -> np.ndarray:
        ...


@dataclass
class PreviousDayPolicy:
    """Insight 1's heuristic: tomorrow looks exactly like today."""

    def forecast_day(self, history: np.ndarray) -> np.ndarray:
        if history.size < HOURS_PER_DAY:
            raise ValueError("need at least one day of history")
        return history[-HOURS_PER_DAY:]


@dataclass
class PreviousWeekPolicy:
    """Tomorrow looks like the same weekday last week."""

    def forecast_day(self, history: np.ndarray) -> np.ndarray:
        week = 7 * HOURS_PER_DAY
        if history.size < week:
            return PreviousDayPolicy().forecast_day(history)
        return history[-week : -week + HOURS_PER_DAY]


@dataclass
class ForecastWindowPolicy:
    """ML policy: Holt-Winters over the weekly season.

    Keeps the last fit of each series (keyed by its first season) and
    extends it when the next history starts with exactly the fitted
    samples, as a server's growing history does day after day; any other
    history is fitted afresh.  The fits are a cache: pickles drop them.
    """

    period: int = 7 * HOURS_PER_DAY
    _fits: dict[bytes, tuple[np.ndarray, HoltWinters]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: Bound on kept fits (the least recently used goes first beyond it;
    #: a refit gives the same forecast, so the cap only bounds memory).
    _FIT_CAP = 64

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_fits"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fits = {}

    def forecast_day(self, history: np.ndarray) -> np.ndarray:
        if history.size < 2 * self.period:
            return PreviousWeekPolicy().forecast_day(history)
        key = history[: self.period].tobytes()
        kept = self._fits.pop(key, None)
        if (
            kept is not None
            and kept[0].size <= history.size
            and np.array_equal(history[: kept[0].size], kept[0])
        ):
            model = kept[1].extend(history)
        else:
            model = HoltWinters(period=self.period).fit(history)
        if len(self._fits) >= self._FIT_CAP:
            del self._fits[next(iter(self._fits))]
        self._fits[key] = (np.array(history, dtype=float), model)
        return np.maximum(0.0, model.forecast(HOURS_PER_DAY))


class BackupScheduler:
    """Pick the quietest window of tomorrow per server."""

    def __init__(self, window_hours: int = 2) -> None:
        if not 1 <= window_hours <= HOURS_PER_DAY:
            raise ValueError("window_hours must be in [1, 24]")
        self.window_hours = window_hours

    def window_loads(self, day_values: np.ndarray) -> np.ndarray:
        """Total load of each candidate window start (wrapping midnight)."""
        if day_values.size != HOURS_PER_DAY:
            raise ValueError("day_values must have exactly 24 entries")
        wrapped = np.concatenate([day_values, day_values[: self.window_hours]])
        return np.array(
            [
                wrapped[start : start + self.window_hours].sum()
                for start in range(HOURS_PER_DAY)
            ]
        )

    def choose(
        self,
        trace: TenantTrace,
        day: int,
        policy: WindowPolicy,
    ) -> WindowChoice:
        """Choose tomorrow's window for one server using ``policy``."""
        start = day * HOURS_PER_DAY
        end = start + HOURS_PER_DAY
        if end > trace.values.size:
            raise ValueError(f"trace too short for day {day}")
        if start == 0:
            raise ValueError("day 0 has no history to forecast from")
        history = trace.values[:start]
        forecast = policy.forecast_day(history)
        predicted_windows = self.window_loads(forecast)
        actual_windows = self.window_loads(trace.values[start:end])
        chosen = int(np.argmin(predicted_windows))
        return WindowChoice(
            server_id=trace.tenant_id,
            day=day,
            start_hour=chosen,
            predicted_load=float(predicted_windows[chosen]),
            actual_load=float(actual_windows[chosen]),
            optimal_load=float(actual_windows.min()),
        )


def evaluate_policy(
    traces: list[TenantTrace],
    policy: WindowPolicy,
    days: range,
    window_hours: int = 2,
    tolerance: float = 0.1,
) -> float:
    """Fraction of server-days where the policy found a low-load window."""
    scheduler = BackupScheduler(window_hours)
    choices = [
        scheduler.choose(trace, day, policy)
        for trace in traces
        for day in days
    ]
    if not choices:
        raise ValueError("no (trace, day) pairs to evaluate")
    return float(np.mean([c.is_correct(tolerance) for c in choices]))


@dataclass
class SeagullReport:
    """Accuracy of the windows recommended so far."""

    choices: list[WindowChoice]
    tolerance: float

    @property
    def accuracy(self) -> float:
        if not self.choices:
            return 0.0
        return float(
            np.mean([c.is_correct(self.tolerance) for c in self.choices])
        )

    def to_events(self) -> "list[ObsEvent]":
        return [event for choice in self.choices for event in choice.to_events()]


class SeagullService(AutonomousService):
    """Backup-window selection behind the AutonomousService API.

    ``observe`` ingests server load traces, ``recommend`` picks
    tomorrow's window for one (server, day) via the configured forecast
    policy, and ``report`` summarizes the accuracy of every window
    recommended so far.
    """

    service_name = "seagull"
    layer = "service"

    def __init__(
        self,
        policy: WindowPolicy | None = None,
        window_hours: int = 2,
        tolerance: float = 0.1,
    ) -> None:
        self.policy = policy or ForecastWindowPolicy()
        self.scheduler = BackupScheduler(window_hours)
        self.tolerance = tolerance
        self._traces: dict[str, TenantTrace] = {}
        self._choices: list[WindowChoice] = []

    def observe(self, trace: TenantTrace) -> TenantTrace:
        """Ingest (or refresh) one server's load trace."""
        self._traces[trace.tenant_id] = trace
        self._emit("observe", server=trace.tenant_id)
        return trace

    def recommend(self, server_id: str, day: int) -> WindowChoice:
        """Pick the backup window for one observed server-day."""
        trace = self._traces.get(server_id)
        if trace is None:
            raise KeyError(f"server {server_id!r} has not been observed")
        with self._span("recommend", server=server_id, day=day):
            choice = self.scheduler.choose(trace, day, self.policy)
            self._choices.append(choice)
            self._emit(
                "window",
                value=choice.actual_load,
                server=server_id,
                start_hour=choice.start_hour,
            )
            return choice

    def report(self) -> SeagullReport:
        return SeagullReport(choices=list(self._choices), tolerance=self.tolerance)

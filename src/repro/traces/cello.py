"""Cello-like trace: synthetic generator + HP-format parser.

The paper's primary workload is Cello — a block-level trace of an HP Labs
timesharing system (simulation, compilation, editing, mail). Its defining
properties for this study are (a) very bursty arrivals ("much higher
burstness and variation" than Financial1, Appendix A.4), (b) Zipf-like
block popularity (Section 4.2 cites the skew observed in Cello), and
(c) the experiment slice: 70 000 requests over ~30 000 data items.

:func:`generate_cello_like` synthesises a trace with those properties from
a seeded RNG; :func:`parse_hp_cello` reads the real trace format for users
who have obtained it from HP Labs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import ConfigurationError, TraceFormatError
from repro.traces.record import TraceRecord
from repro.traces.synthetic import MMPPArrivals, ZipfPopularity
from repro.types import DEFAULT_REQUEST_BYTES, OpKind


@dataclass(frozen=True)
class CelloLikeConfig:
    """Knobs of the synthetic Cello-like generator.

    Defaults reproduce the paper's experiment slice at full scale. The
    mean arrival rate is ``burst_rate * duty + quiet_rate * (1-duty)``;
    with the defaults it is 21 req/s, i.e. 70 000 requests span roughly
    56 minutes, keeping per-disk inter-arrival gaps commensurate with the
    ~43 s breakeven time of the ``PAPER_EVAL`` profile (this calibration
    puts the replication-factor-1 energy at ~0.85 of always-on, near the
    paper's ~0.88).

    Attributes:
        num_requests: Requests to generate.
        num_data: Distinct data items (unique disk-id/LBA pairs).
        popularity_exponent: Zipf exponent of block popularity.
        burst_rate / quiet_rate: MMPP rates (req/s).
        mean_burst / mean_quiet: MMPP mean dwell times (s).
        read_fraction: Probability a record is a read.
        size_bytes: Request payload size (paper: 512 KiB file blocks).
    """

    num_requests: int = 70_000
    num_data: int = 30_000
    popularity_exponent: float = 0.9
    burst_rate: float = 120.0
    quiet_rate: float = 3.0
    mean_burst: float = 4.0
    mean_quiet: float = 22.0
    read_fraction: float = 1.0
    size_bytes: int = DEFAULT_REQUEST_BYTES

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")
        if self.num_data <= 0:
            raise ConfigurationError("num_data must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")

    def scaled(self, factor: float) -> "CelloLikeConfig":
        """Scaled-down copy preserving per-disk request density.

        Used by the benchmark harness: scaling requests and data by
        ``factor`` (and the experiment's disk count by the same factor)
        keeps each disk's arrival statistics — hence the energy shape —
        comparable to full scale.
        """
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return CelloLikeConfig(
            num_requests=max(1, int(self.num_requests * factor)),
            num_data=max(1, int(self.num_data * factor)),
            popularity_exponent=self.popularity_exponent,
            burst_rate=self.burst_rate * factor,
            quiet_rate=self.quiet_rate * factor,
            mean_burst=self.mean_burst,
            mean_quiet=self.mean_quiet,
            read_fraction=self.read_fraction,
            size_bytes=self.size_bytes,
        )

    def arrivals(self) -> MMPPArrivals:
        """The bursty arrival process these rates and dwell times define."""
        return MMPPArrivals(
            burst_rate=self.burst_rate,
            quiet_rate=self.quiet_rate,
            mean_burst=self.mean_burst,
            mean_quiet=self.mean_quiet,
        )


def generate_cello_like(
    config: CelloLikeConfig = CelloLikeConfig(), seed: int = 0
) -> List[TraceRecord]:
    """Generate a bursty, Zipf-popular synthetic trace (Cello substitute)."""
    rng = random.Random(seed)
    arrivals = config.arrivals().generate(config.num_requests, rng)
    popularity = ZipfPopularity(config.num_data, config.popularity_exponent)
    records = []
    for arrival in arrivals:
        op = OpKind.READ if rng.random() < config.read_fraction else OpKind.WRITE
        records.append(
            TraceRecord(
                time=arrival,
                data_key=popularity.sample(rng),
                op=op,
                size_bytes=config.size_bytes,
            )
        )
    return records


def parse_hp_cello(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse the HP Labs Cello trace text format.

    Expected whitespace-separated columns (one I/O per line)::

        <timestamp-seconds> <device-id> <lba> <size-bytes> <R|W>

    Lines starting with ``#`` and blank lines are skipped. Timestamps are
    rebased so the first record is at t = 0.
    """
    parsed = []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < 5:
            raise TraceFormatError(
                f"cello line {line_number}: expected 5 fields, got {len(fields)}"
            )
        try:
            timestamp = float(fields[0])
            device = int(fields[1])
            lba = int(fields[2])
            size = int(fields[3])
        except ValueError as exc:
            raise TraceFormatError(f"cello line {line_number}: {exc}")
        flag = fields[4].upper()
        if flag not in ("R", "W"):
            raise TraceFormatError(
                f"cello line {line_number}: op must be R or W, got {fields[4]!r}"
            )
        parsed.append((timestamp, (device, lba), flag == "R", size))
    if not parsed:
        return []
    base_time = min(entry[0] for entry in parsed)
    raw = [
        TraceRecord(
            time=timestamp - base_time,
            data_key=data_key,
            op=OpKind.READ if is_read else OpKind.WRITE,
            size_bytes=size,
        )
        for timestamp, data_key, is_read, size in parsed
    ]
    raw.sort()
    return raw

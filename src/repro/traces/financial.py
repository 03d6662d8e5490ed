"""Financial1-like trace: synthetic generator + SPC-format parser.

Financial1 is an OLTP trace from a financial institution, published in the
UMass Trace Repository in the SPC format. Relative to Cello it has much
steadier arrivals (the paper attributes its ~3x lower mean response time
solely to the lower burstiness), with similarly skewed block popularity.

:func:`generate_financial_like` synthesises such a stream (plain Poisson
with a mild diurnal-free rate);
:func:`parse_spc` reads the real SPC ``ASU,LBA,size,opcode,timestamp``
format so the actual trace can be dropped in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import ConfigurationError, TraceFormatError
from repro.traces.record import TraceRecord
from repro.traces.synthetic import PoissonArrivals, ZipfPopularity
from repro.types import DEFAULT_REQUEST_BYTES, OpKind


@dataclass(frozen=True)
class FinancialLikeConfig:
    """Knobs of the synthetic Financial1-like generator.

    The default mean rate, 21.5 req/s, is within 2.5% of the Cello-like
    generator's 21 req/s, so cross-trace comparisons isolate burstiness,
    exactly the contrast the paper draws in Appendix A.4.
    """

    num_requests: int = 70_000
    num_data: int = 30_000
    popularity_exponent: float = 0.9
    arrival_rate: float = 21.5
    read_fraction: float = 1.0
    size_bytes: int = DEFAULT_REQUEST_BYTES

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")
        if self.num_data <= 0:
            raise ConfigurationError("num_data must be positive")
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")

    def scaled(self, factor: float) -> "FinancialLikeConfig":
        """Scaled-down copy preserving per-disk request density."""
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return FinancialLikeConfig(
            num_requests=max(1, int(self.num_requests * factor)),
            num_data=max(1, int(self.num_data * factor)),
            popularity_exponent=self.popularity_exponent,
            arrival_rate=self.arrival_rate * factor,
            read_fraction=self.read_fraction,
            size_bytes=self.size_bytes,
        )


def generate_financial_like(
    config: FinancialLikeConfig = FinancialLikeConfig(), seed: int = 0
) -> List[TraceRecord]:
    """Generate a steady OLTP-like synthetic trace (Financial1 substitute)."""
    rng = random.Random(seed)
    arrivals = PoissonArrivals(config.arrival_rate).generate(
        config.num_requests, rng
    )
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


def parse_spc(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse the SPC trace format used by the UMass repository.

    Comma-separated columns::

        ASU, LBA, size-bytes, opcode (r/R/w/W), timestamp-seconds [, ...]

    Extra trailing columns are ignored. Timestamps are rebased to t = 0.
    """
    parsed = []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")]
        if len(fields) < 5:
            raise TraceFormatError(
                f"spc line {line_number}: expected >= 5 fields, got {len(fields)}"
            )
        try:
            asu = int(fields[0])
            lba = int(fields[1])
            size = int(fields[2])
            timestamp = float(fields[4])
        except ValueError as exc:
            raise TraceFormatError(f"spc line {line_number}: {exc}")
        opcode = fields[3].lower()
        if opcode not in ("r", "w"):
            raise TraceFormatError(
                f"spc line {line_number}: opcode must be r or w, got {fields[3]!r}"
            )
        parsed.append((timestamp, (asu, lba), opcode == "r", max(size, 1)))
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

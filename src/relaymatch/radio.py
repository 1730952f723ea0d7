"""Seeded topology generation, path loss, SNR and two-hop AF link capacities.

Distances are metres, powers dBm, bandwidths Hz, rates bit/s. Channel gains
and SNRs are linear (dimensionless). All generation is a pure function of
(params, seed) so scenarios replay bit-exactly.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, from_fields

log = logging.getLogger(__name__)


def _refuse_non_finite(owner, prefix: str) -> None:
    """Refuse a NaN or infinite number in owner's fields, tuples included: a
    NaN fails every comparison after this and would reach the capacity table."""
    for f in fields(owner):
        value = getattr(owner, f.name)
        parts = value if isinstance(value, (tuple, list)) else (value,)
        if not all(v is None or isinstance(v, (int, PathLossModel)) or math.isfinite(v)
                   for v in parts):
            raise ConfigurationError(f"{prefix}{f.name} must be finite, not {value!r}")


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss PL(dB) = intercept + slope * log10(d / 1 km).

    Optional zero-mean log-normal shadowing (sigma in dB) is drawn once per
    link when the gain table is built. Defaults are the classic macro-cell
    parameters; see LOS_2GHZ for an air-to-air line-of-sight budget.
    """

    intercept_db: float = 128.1
    slope_db: float = 37.6
    shadowing_sigma_db: float = 0.0
    min_distance_m: float = 1.0

    def __post_init__(self):
        """Refuse a non-finite number, a negative shadowing sigma, which would
        draw no shadowing, and a minimum distance that cannot clamp a link."""
        _refuse_non_finite(self, "path_loss.")
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError("path_loss.shadowing_sigma_db must be >= 0")
        if self.min_distance_m <= 0:
            raise ConfigurationError("path_loss.min_distance_m must be > 0")

    def loss_db(self, distance_m: float) -> float:
        d = max(float(distance_m), self.min_distance_m)
        return self.intercept_db + self.slope_db * math.log10(d / 1000.0)


# Free-space loss at 2 GHz: 32.45 + 20*log10(f_MHz) = 98.5 dB at 1 km.
LOS_2GHZ = PathLossModel(intercept_db=98.5, slope_db=20.0)

# Low-altitude air-to-air budget: mostly line-of-sight with mild excess loss
# and 4 dB shadowing from airframe/ground reflections.
AIR_TO_AIR = PathLossModel(intercept_db=103.0, slope_db=26.0,
                           shadowing_sigma_db=4.0)

PATH_LOSS_PRESETS = {
    "macro": PathLossModel(),
    "los-2ghz": LOS_2GHZ,
    "air-to-air": AIR_TO_AIR,
}


def path_gain(a, b, model: PathLossModel) -> float:
    """Linear power gain 10^(-PL/10) between two 2-D points.

    Coincident points are clamped to the model's minimum distance and logged.
    """
    gain, clamped = _clamped_gain(a, b, model)
    if clamped:
        _log_clamped(1, model)
    return gain


def _clamped_gain(a, b, model: PathLossModel) -> tuple:
    """path_gain's gain, unlogged, and whether the link was clamped."""
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    clamped = d < model.min_distance_m
    if clamped:
        d = model.min_distance_m
    try:
        return 10.0 ** (-model.loss_db(d) / 10.0), clamped
    except OverflowError:
        raise ConfigurationError(
            f"path_loss.intercept_db = {model.intercept_db!r} and slope_db = "
            f"{model.slope_db!r} give a gain that overflows at {d!r} m") from None


def _log_clamped(links: int, model: PathLossModel) -> None:
    log.warning("%d link distance(s) below minimum, clamped to %.3g m",
                links, model.min_distance_m)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def noise_power(bandwidth_hz: float, density_dbm_hz: float = -174.0) -> float:
    """Thermal noise power in watts over the given bandwidth."""
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth must be positive")
    return dbm_to_watts(density_dbm_hz) * bandwidth_hz


def snr(tx_power_dbm: float, gain: float, noise_power_w: float) -> float:
    """Received SNR P * |h|^2 / sigma^2, linear."""
    if gain <= 0:
        raise ConfigurationError("gain must be positive")
    if noise_power_w <= 0:
        raise ConfigurationError("noise power must be positive")
    return dbm_to_watts(tx_power_dbm) * gain / noise_power_w


def af_capacity(snr_sr: float, snr_rd: float, bandwidth_hz: float) -> float:
    """Two-hop amplify-and-forward capacity in bit/s.

    The 1/2 factor reflects the two-slot half-duplex frame (one slot per hop).
    """
    if snr_sr < 0 or snr_rd < 0:
        raise ConfigurationError("SNRs must be non-negative")
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth must be positive")
    eff = snr_sr * snr_rd / (1.0 + snr_sr + snr_rd)
    return 0.5 * bandwidth_hz * math.log2(1.0 + eff)


@dataclass(frozen=True)
class SourceNode:
    id: int
    position: tuple[float, float]
    tx_power_dbm: float
    num_radios: int      # quota alpha_n: how many relay radios it can hold
    required_rate_bps: float


@dataclass(frozen=True)
class RelayRadio:
    id: int              # global radio index
    channel: int         # globally unique orthogonal channel
    bandwidth_hz: float


@dataclass(frozen=True)
class RelayNode:
    id: int
    position: tuple[float, float]
    tx_power_dbm: float
    radios: tuple[RelayRadio, ...]


@dataclass(frozen=True)
class Topology:
    area_side_m: float
    destination: tuple[float, float]
    sources: tuple[SourceNode, ...]
    relays: tuple[RelayNode, ...]
    seed: int
    noise_density_dbm_hz: float = -174.0
    path_loss: PathLossModel = field(default_factory=PathLossModel)

    def __post_init__(self):
        """Every solver indexes sources, relays and radios by position, so a
        quota below 1, an id that is not the node's position (radios counted
        in relay order) or a repeated radio channel is refused."""
        if any(s.num_radios < 1 for s in self.sources):
            raise ConfigurationError(f"SourceNode key 'num_radios': every source needs "
                                     f"a quota of at least 1, not {list(self.quotas)}")
        for kind, nodes in (("SourceNode", self.sources), ("RelayNode", self.relays),
                            ("RelayRadio", self.radios)):
            ids = [node.id for node in nodes]
            if ids != list(range(len(ids))):
                raise ConfigurationError(f"{kind} key 'id': ids must be the positions "
                                         f"0..{len(ids) - 1} in order, not {ids}")
        channels = Counter(r.channel for r in self.radios)
        if len(channels) < self.num_radios:
            repeated = sorted(c for c, k in channels.items() if k > 1)
            raise ConfigurationError(f"RelayRadio key 'channel': channels must be "
                                     f"distinct, {repeated} repeat")

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def num_radios(self) -> int:
        return sum(len(r.radios) for r in self.relays)

    @property
    def radio_owner(self) -> tuple:
        """Relay index owning each radio, indexed by global radio id."""
        return tuple(m for m, r in enumerate(self.relays) for _ in r.radios)

    @property
    def radios(self) -> tuple:
        return tuple(c for r in self.relays for c in r.radios)

    @property
    def quotas(self) -> tuple:
        return tuple(s.num_radios for s in self.sources)


#: most source-radio links a topology may have; its capacity table then
#: holds 8 MB of float64
MAX_LINKS = 10 ** 6


@dataclass(frozen=True)
class TopologyParams:
    num_sources: int = 13
    num_relays: int = 5
    radios_per_relay: int = 2
    # None: alpha drawn uniformly from {1,2,3}; int: fixed; (lo, hi): uniform.
    source_radios: Optional[Union[int, tuple[int, int]]] = None
    area_side_m: float = 2000.0
    sv_tx_power_dbm: float = 20.0
    rv_tx_power_dbm: float = 30.0
    bandwidth_hz: float = 10e6
    noise_density_dbm_hz: float = -174.0
    rate_requirement_bps: tuple[float, float] = (10e6, 40e6)
    relay_radius_m: float = 200.0
    source_annulus: tuple[float, float] = (0.6, 1.0)   # fractions of the half-diagonal
    path_loss: PathLossModel = field(default_factory=PathLossModel)

    def __post_init__(self):
        _refuse_non_finite(self, "")
        if self.num_sources < 1 or self.num_relays < 1:
            raise ConfigurationError("need at least one source and one relay")
        if self.radios_per_relay < 1:
            raise ConfigurationError("relays need at least one radio")
        links = self.num_sources * self.num_relays * self.radios_per_relay
        if links > MAX_LINKS:
            raise ConfigurationError(
                f"num_sources x num_relays x radios_per_relay = {self.num_sources} x "
                f"{self.num_relays} x {self.radios_per_relay} = {links} source-radio "
                f"links, over the limit of {MAX_LINKS}")
        if self.area_side_m <= 0:
            raise ConfigurationError("area side must be positive")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.relay_radius_m <= 0 or self.relay_radius_m > self.area_side_m / 2:
            raise ConfigurationError("relay placement radius must fit inside the area")
        lo, hi = self.source_annulus
        if not (0 < lo < hi <= 1):
            raise ConfigurationError("source annulus fractions must satisfy 0 < lo < hi <= 1")
        rlo, rhi = self.rate_requirement_bps
        if rlo <= 0 or rhi < rlo:
            raise ConfigurationError("rate requirement range must be positive and ordered")
        lo, hi = self._radio_range()
        if lo < 1 or hi < lo:
            raise ConfigurationError("source radio counts must be >= 1")

    def _radio_range(self) -> tuple:
        r = self.source_radios
        return (1, 3) if r is None else (r, r) if isinstance(r, int) else r


def generate_topology(params: TopologyParams, seed: int) -> Topology:
    """Deterministic scenario draw: relays in a disc around the central
    destination, sources in an annulus near the cell edge."""
    rng = np.random.default_rng(seed)
    half = params.area_side_m / 2.0
    dest = (half, half)

    relays = []
    channel = 0
    radio_id = 0
    for m in range(params.num_relays):
        r = params.relay_radius_m * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        pos = (dest[0] + r * math.cos(theta), dest[1] + r * math.sin(theta))
        radios = []
        for _ in range(params.radios_per_relay):
            radios.append(RelayRadio(id=radio_id, channel=channel,
                                     bandwidth_hz=params.bandwidth_hz))
            radio_id += 1
            channel += 1
        relays.append(RelayNode(id=m, position=pos,
                                tx_power_dbm=params.rv_tx_power_dbm,
                                radios=tuple(radios)))

    half_diag = half * math.sqrt(2.0)
    try:
        lo2, hi2 = [(f * half_diag) ** 2 for f in params.source_annulus]
    except OverflowError:
        raise ConfigurationError(f"area_side_m = {params.area_side_m!r} is too large") from None
    alo, ahi = params._radio_range()
    sources = []
    for n in range(params.num_sources):
        # rejection-sample the annulus clipped to the square
        while True:
            r = math.sqrt(rng.uniform(lo2, hi2))
            theta = 2.0 * math.pi * rng.random()
            pos = (dest[0] + r * math.cos(theta), dest[1] + r * math.sin(theta))
            if 0 <= pos[0] <= params.area_side_m and 0 <= pos[1] <= params.area_side_m:
                break
        alpha = int(rng.integers(alo, ahi + 1))
        req = float(rng.uniform(*params.rate_requirement_bps))
        sources.append(SourceNode(id=n, position=pos,
                                  tx_power_dbm=params.sv_tx_power_dbm,
                                  num_radios=alpha, required_rate_bps=req))

    return Topology(area_side_m=params.area_side_m, destination=dest,
                    sources=tuple(sources), relays=tuple(relays), seed=int(seed),
                    noise_density_dbm_hz=params.noise_density_dbm_hz,
                    path_loss=params.path_loss)


@dataclass(frozen=True)
class LinkGainTable:
    """Linear gains for every source->relay and relay->destination link."""
    source_to_relay: np.ndarray      # (N, M)
    relay_to_destination: np.ndarray  # (M,)

    def __post_init__(self):
        for name in ("source_to_relay", "relay_to_destination"):
            if (getattr(self, name) <= 0).any():
                raise ConfigurationError(
                    f"gains.{name}: every link gain must be positive")


def build_gain_table(topology: Topology) -> LinkGainTable:
    """Gains from the node geometry under topology.path_loss; shadowing (if
    enabled) is seeded from the topology seed so the table is a pure
    function of the topology."""
    model = topology.path_loss
    n, m = topology.num_sources, len(topology.relays)
    g_sr = np.empty((n, m))
    g_rd = np.empty(m)
    clamped = 0
    for j, relay in enumerate(topology.relays):
        g_rd[j], c = _clamped_gain(relay.position, topology.destination, model)
        clamped += c
        for i, src in enumerate(topology.sources):
            g_sr[i, j], c = _clamped_gain(src.position, relay.position, model)
            clamped += c
    if clamped:
        _log_clamped(clamped, model)
    if model.shadowing_sigma_db > 0:
        rng = np.random.default_rng(np.random.SeedSequence((topology.seed, 0x5ad0)))
        # a gain this makes 0 is refused by LinkGainTable, an infinite one
        # by the capacity table, naming its link
        with np.errstate(over="ignore"):
            g_sr *= 10.0 ** (rng.normal(0, model.shadowing_sigma_db, g_sr.shape) / 10.0)
            g_rd *= 10.0 ** (rng.normal(0, model.shadowing_sigma_db, g_rd.shape) / 10.0)
    return LinkGainTable(source_to_relay=g_sr, relay_to_destination=g_rd)


def build_capacity_table(topology: Topology, gains: LinkGainTable | None = None) -> np.ndarray:
    """(N, L) array of AF capacities for every (source, relay radio) pair.

    The solvers read a topology's powers, gains and bandwidths only through
    this table, so this is the one place they are refused: a power that
    overflows in watts, a bandwidth or noise power that is not positive, or
    an SNR or capacity that is not finite raises ConfigurationError naming
    the first such link (radio by radio, then source by source), its
    source, radio and inputs.

    A radio's noise power and relay SNR are computed once, before its
    links, and a fault in them is named at its first link. That link's
    source SNR would fail the same way or not at all: LinkGainTable refuses
    a gain of 0 or below, and an overflowing power reads alike for source
    and relay."""
    gains = gains or build_gain_table(topology)
    caps = np.empty((topology.num_sources, topology.num_radios))
    if not topology.sources:        # no link to compute, check or name
        return caps
    owner = topology.radio_owner
    with np.errstate(over="ignore", invalid="ignore"):     # refused below, by name
        for l, radio in enumerate(topology.radios):
            m = owner[l]
            relay = topology.relays[m]
            i = 0       # a fault of the radio's own terms is its first link's
            try:
                sigma2 = noise_power(radio.bandwidth_hz, topology.noise_density_dbm_hz)
                g_rd = snr(relay.tx_power_dbm, gains.relay_to_destination[m], sigma2)
                for i, src in enumerate(topology.sources):
                    g_sr = snr(src.tx_power_dbm, gains.source_to_relay[i, m], sigma2)
                    caps[i, l] = cap = af_capacity(g_sr, g_rd, radio.bandwidth_hz)
                    if not math.isfinite(cap):      # a non-finite SNR makes it NaN
                        raise ConfigurationError(
                            f"SNRs {float(g_sr)!r} (source-relay) and {float(g_rd)!r} "
                            f"(relay-destination) give capacity {cap!r}")
                continue
            except OverflowError:
                reason = "a power in dBm overflows in watts"
            except ConfigurationError as exc:
                reason = str(exc)
            raise ConfigurationError(
                f"source {i}, radio {l}: {reason}; its inputs are "
                f"sources[{i}].tx_power_dbm = {topology.sources[i].tx_power_dbm!r}, "
                f"gains.source_to_relay[{i}][{m}] = {float(gains.source_to_relay[i, m])!r}, "
                f"relays[{m}].tx_power_dbm = {relay.tx_power_dbm!r}, "
                f"gains.relay_to_destination[{m}] = "
                f"{float(gains.relay_to_destination[m])!r}, "
                f"noise_density_dbm_hz = {topology.noise_density_dbm_hz!r} and "
                f"radios[{l}].bandwidth_hz = {radio.bandwidth_hz!r}")
    return caps


# --- JSON import/export -----------------------------------------------------

def topology_to_dict(topology: Topology, gains: LinkGainTable | None = None) -> dict:
    """The topology's dataclass fields, nested, plus its gain table."""
    gains = gains or build_gain_table(topology)
    return {**asdict(topology),
            "gains": {"source_to_relay": gains.source_to_relay.tolist(),
                      "relay_to_destination": gains.relay_to_destination.tolist()}}


def topology_from_dict(doc: dict) -> tuple:
    """Returns (Topology, LinkGainTable) replayed bit-exactly from JSON. Besides
    from_fields' key and type errors and the dataclasses' own refusals, gain
    tables that do not fit the nodes raise ConfigurationError."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a topology file must hold a JSON object, not {doc!r}")
    gains = from_fields(LinkGainTable, doc.get("gains", {}))
    topo = from_fields(Topology, {k: v for k, v in doc.items() if k != "gains"})
    n, m = topo.num_sources, len(topo.relays)
    if gains.source_to_relay.shape != (n, m) or gains.relay_to_destination.shape != (m,):
        raise ConfigurationError(f"gain tables do not fit {n} sources and {m} relays")
    return topo, gains


def save_topology(path, topology: Topology, gains: LinkGainTable | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology, gains), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_topology(path) -> tuple:
    with open(path) as fh:
        return topology_from_dict(json.load(fh))

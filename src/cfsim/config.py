"""Simulation configuration: dataclasses, YAML loading, validation, presets.

Every tunable of the simulator lives here with a documented default. The UAV
channel constants (LOS probability and path-loss coefficient tuples) are
transcribed from 3GPP TR 36.777 Tables B-1/B-2 (UMa-AV) and are treated as
opaque numbers by the channel code; override them in the YAML config to model
a different environment.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError

SPEED_OF_LIGHT = 299_792_458.0


def dbm_to_watts(x_dbm):
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LogDistanceModel:
    """dB value of form  offset + (dist_coef + dist_height_coef*log10(h)) * log10(d)
    + freq_coef * log10(freq_scale * f_GHz).

    Used both for the GUE gain formula (negative coefficients, yields a gain)
    and the UAV path-loss tables (positive coefficients, yields a loss).
    """

    offset_db: float
    dist_coef: float
    freq_coef: float
    dist_height_coef: float = 0.0
    freq_scale: float = 1.0

    def evaluate(self, dist_m, f_ghz, height_m=1.0):
        """dB value per link; `dist_m` and `height_m` broadcast, `f_ghz` is a scalar."""
        dist_term = self.dist_coef + self.dist_height_coef * np.log10(height_m)
        return (
            self.offset_db
            + dist_term * np.log10(dist_m)
            + self.freq_coef * math.log10(self.freq_scale * f_ghz)
        )


@dataclass(frozen=True)
class UavLosModel:
    """Piecewise LOS-probability model for aerial users.

    p = 1 when the horizontal distance is below d1 or the user flies above
    `always_los_above_m`; otherwise d1/d + exp(-d/p1) * (1 - d1/d), with
    d1 = max(d1_log_coef*log10(h) + d1_offset, d1_floor_m) and
    p1 = p1_log_coef*log10(h) + p1_offset.
    """

    always_los_above_m: float = 100.0
    d1_log_coef: float = 460.0
    d1_offset: float = -700.0
    d1_floor_m: float = 18.0
    p1_log_coef: float = 4300.0
    p1_offset: float = -3800.0


@dataclass(frozen=True)
class UavChannelModel:
    """UAV large-scale channel constants (externally sourced: 3GPP TR 36.777, UMa-AV)."""

    los_prob: UavLosModel = field(default_factory=UavLosModel)
    # PL_LOS = 28.0 + 22 log10(d3D) + 20 log10(f_GHz)
    pathloss_los: LogDistanceModel = field(
        default_factory=lambda: LogDistanceModel(offset_db=28.0, dist_coef=22.0, freq_coef=20.0)
    )
    # PL_NLOS = -17.5 + (46 - 7 log10(h)) log10(d3D) + 20 log10(40*pi*f_GHz/3)
    pathloss_nlos: LogDistanceModel = field(
        default_factory=lambda: LogDistanceModel(
            offset_db=-17.5,
            dist_coef=46.0,
            dist_height_coef=-7.0,
            freq_coef=20.0,
            freq_scale=40.0 * math.pi / 3.0,
        )
    )
    # shadow sigma: LOS 4.64*exp(-0.0066 h) dB, NLOS 6 dB
    shadow_los_scale_db: float = 4.64
    shadow_los_height_coef: float = -0.0066
    shadow_nlos_db: float = 6.0

    def shadow_sigma_db(self, height_m, los):
        """Shadowing std in dB per link; `height_m` and the boolean `los` broadcast."""
        sigma_los = self.shadow_los_scale_db * np.exp(self.shadow_los_height_coef * height_m)
        return np.where(los, sigma_los, self.shadow_nlos_db)


@dataclass(frozen=True)
class ChannelConfig:
    # GUE gain in dB: -36.7 log10(d) - 22.7 - 26 log10(f_GHz) + shadowing
    gue_gain: LogDistanceModel = field(
        default_factory=lambda: LogDistanceModel(offset_db=-22.7, dist_coef=-36.7, freq_coef=-26.0)
    )
    gue_shadow_sigma_db: float = 4.0
    shadow_corr_dist_m: float = 9.0  # d0 of the 2^(-rho/d0) user-correlation kernel
    uav: UavChannelModel = field(default_factory=UavChannelModel)


@dataclass(frozen=True)
class FrameConfig:
    tau_c: int = 200
    tau_p: int = 32

    @property
    def prelog(self):
        """Share of the coherence block that carries data on each link: DL and UL
        split the tau_c - tau_p data samples equally."""
        return (self.tau_c - self.tau_p) / 2.0 / self.tau_c


@dataclass(frozen=True)
class FpcConfig:
    alpha: float = 0.5
    p0_dbm: float = -10.0

    @property
    def p0_watts(self):
        return dbm_to_watts(self.p0_dbm)


@dataclass(frozen=True)
class MaxMinConfig:
    """Knobs of the DL max-min solver; UL max-min is exact and has none."""

    outer_tol: float = 1e-4  # DL: smoothing gap and relative min-rate gain that ends the run
    max_outer_iters: int = 50  # DL: cap on smoothing stages
    max_inner_iters: int = 100  # DL: cap on steps per stage; a stage also ends when it stalls


@dataclass(frozen=True)
class PowerConfig:
    dl_budget_per_ap_w: float = 0.2
    ul_max_w: float = 0.1
    train_per_sample_w: float = 0.1  # eta_bar; pilot energy is tau_p * this
    dl: str = "ppa"  # ppa | wfpa | maxmin | uniform
    ul: str = "fpc"  # fpc | maxmin
    kappa: Optional[float] = None  # fraction of DL power reserved for UAVs
    fpc: FpcConfig = field(default_factory=FpcConfig)
    maxmin: MaxMinConfig = field(default_factory=MaxMinConfig)


@dataclass(frozen=True)
class NoiseConfig:
    psd_dbm_hz: float = -174.0
    figure_db: float = 9.0

    def variance_watts(self, bandwidth_hz):
        return dbm_to_watts(self.psd_dbm_hz + 10.0 * math.log10(bandwidth_hz) + self.figure_db)


@dataclass(frozen=True)
class AssociationConfig:
    mode: str = "cf"  # cf | uc
    uc_cluster_size: int = 10


@dataclass(frozen=True)
class MonteCarloConfig:
    ub_samples: int = 10_000  # per drop; 0 disables the UB evaluation and the mirror check
    batch_count: int = 20  # batches for stderr estimation; each batch's draws are made at once


# (field, lower bound, bound allowed) of every field that SimConfig.validate
# checks against a plain lower bound
_LOWER_BOUNDS = (
    ("area_side_m", 0, False), ("n_ap", 1, True), ("n_ap_antennas", 1, True),
    ("frame.tau_p", 1, True), ("carrier_freq_hz", 0, False), ("bandwidth_hz", 0, False),
    ("power.dl_budget_per_ap_w", 0, False), ("power.ul_max_w", 0, False),
    ("channel.shadow_corr_dist_m", 0, False), ("channel.gue_shadow_sigma_db", 0, True),
    ("mc.ub_samples", 0, True), ("power.maxmin.max_outer_iters", 1, True),
    ("power.maxmin.max_inner_iters", 1, True), ("power.maxmin.outer_tol", 0, True),
    ("drops", 1, True), ("seed", 0, True), ("power.train_per_sample_w", 0, False),
    ("channel.uav.shadow_nlos_db", 0, True), ("channel.uav.shadow_los_scale_db", 0, True),
)


def _floats(obj, path=""):
    """(dotted field name, value) of every float in a dataclass tree, tuple entries included."""
    for f in fields(obj):
        value, name = getattr(obj, f.name), path + f.name
        if is_dataclass(value):
            yield from _floats(value, name + ".")
        elif isinstance(value, tuple):
            yield from ((name, v) for v in value if isinstance(v, float))
        elif isinstance(value, float):
            yield name, value


@dataclass(frozen=True)
class SimConfig:
    """Full simulation configuration (defaults follow the reference setup)."""

    area_side_m: float = 1000.0
    n_ap: int = 100
    n_ap_antennas: int = 4
    n_gue: int = 48
    n_uav: int = 12
    ap_height_m: float = 10.0
    gue_height_m: float = 1.65
    uav_height_range_m: tuple = (22.5, 300.0)
    ap_placement: str = "uniform"  # uniform | grid
    carrier_freq_hz: float = 1.9e9
    bandwidth_hz: float = 20e6
    frame: FrameConfig = field(default_factory=FrameConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    association: AssociationConfig = field(default_factory=AssociationConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    seed: int = 1
    drops: int = 100

    @property
    def n_users(self):
        return self.n_gue + self.n_uav

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def spacing_m(self):
        """Element spacing of every AP array: half a wavelength."""
        return self.wavelength_m / 2.0

    @property
    def carrier_freq_ghz(self):
        return self.carrier_freq_hz / 1e9

    @property
    def noise_w(self):
        """Noise variance in Watts, the same at the APs (sigma_w^2) and the users (sigma_z^2)."""
        return self.noise.variance_watts(self.bandwidth_hz)

    @property
    def train_energy_w(self):
        """Per-user pilot energy eta_k = tau_p * eta_bar."""
        return self.frame.tau_p * self.power.train_per_sample_w

    def _far_gain_db(self):
        """Lowest mean path gain in dB (no shadowing) over the user roles present, at the
        longest user-AP distance of the wrapped area (UAVs at both ends of their range)."""
        ch, f = self.channel, self.carrier_freq_ghz
        reach = self.area_side_m / math.sqrt(2.0)  # horizontal, to the nearest image
        gains = []
        if self.n_gue > 0:
            d = math.hypot(reach, self.gue_height_m - self.ap_height_m)
            gains.append(ch.gue_gain.evaluate(d, f))
        for h in self.uav_height_range_m if self.n_uav > 0 else ():
            d = math.hypot(reach, h - self.ap_height_m)
            gains += [-m.evaluate(d, f, h) for m in (ch.uav.pathloss_los, ch.uav.pathloss_nlos)]
        return min(gains)

    def _near_gain_db(self):
        """Highest mean path gain in dB (no shadowing) over the user roles present, at
        the smallest user-AP height gap: a user right above or below an AP, UAVs at
        both ends of their range. A gap of 0 puts no positive floor under the
        distance, so the rule skips the role with it (UAVs, when ap_height_m lies
        inside their range); None when it skips every role present."""
        ch, f = self.channel, self.carrier_freq_ghz
        gains = []
        if self.n_gue > 0 and self.gue_height_m != self.ap_height_m:
            gains.append(ch.gue_gain.evaluate(abs(self.gue_height_m - self.ap_height_m), f))
        lo, hi = self.uav_height_range_m
        if self.n_uav > 0 and not lo <= self.ap_height_m <= hi:
            for h in (lo, hi):
                d = abs(h - self.ap_height_m)
                gains += [-m.evaluate(d, f, h) for m in (ch.uav.pathloss_los, ch.uav.pathloss_nlos)]
        return max(gains, default=None)

    def validate(self):
        """Raise ConfigError naming the first violated field."""
        for name, low, closed in _LOWER_BOUNDS:
            value = attrgetter(name)(self)
            if not (value >= low if closed else value > low):  # also rejects NaN
                raise ConfigError(f"must be {'>=' if closed else '>'} {low}", field=name)
        for name, value in _floats(self):
            if not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value}", field=name)
        for name, power in (("noise", lambda: self.noise_w),
                            ("power.fpc.p0_dbm", lambda: self.power.fpc.p0_watts)):
            try:
                watts = power()
            except OverflowError:  # float ** beyond the float range
                watts = math.inf
            if not 0.0 < watts < math.inf:
                raise ConfigError(f"gives {watts} W, not a positive finite power", field=name)
        if self.n_gue < 0 or self.n_uav < 0:
            raise ConfigError("user counts must be >= 0", field="n_gue/n_uav")
        if self.n_users < 1:
            raise ConfigError("need at least one user", field="n_gue/n_uav")
        sysconf = getattr(os, "sysconf", lambda name: math.inf)  # not on Windows
        ram = sysconf("SC_PAGE_SIZE") * sysconf("SC_PHYS_PAGES")
        if 16 * self.n_users * self.n_ap * self.n_ap_antennas**2 > ram:
            raise ConfigError("a drop's estimators D exceed physical memory",
                              field="n_ap_antennas")
        if not self.frame.tau_p < self.frame.tau_c:
            raise ConfigError(
                f"tau_p must be < tau_c (got tau_p={self.frame.tau_p}, tau_c={self.frame.tau_c})",
                field="frame.tau_p",
            )
        lo, hi = self.uav_height_range_m
        if not (0 < lo <= hi):
            raise ConfigError("range must satisfy 0 < low <= high", field="uav_height_range_m")
        n, spacing = self.n_ap_antennas, self.spacing_m
        if not (n - 1) * spacing <= self.area_side_m:
            raise ConfigError(f"an AP array of {n} antennas spaced {spacing:g} m does not fit "
                              f"in area_side_m={self.area_side_m:g}", field="n_ap_antennas")
        # gamma = eta tr(G B^-1 G) is quadratic in the path gain, so a gain whose
        # square underflows zeroes every estimate of the links it holds on
        far_db = self._far_gain_db()
        if not far_db >= 5.0 * math.log10(np.finfo(float).tiny):
            raise ConfigError(f"mean path gain {far_db:.4g} dB at the longest in-area distance: "
                              "its square underflows", field="carrier_freq_hz/area_side_m")
        near_db = self._near_gain_db()
        if near_db is not None and not near_db <= 5.0 * math.log10(np.finfo(float).max):
            raise ConfigError(f"mean path gain {near_db:.4g} dB at the smallest user-AP height "
                              "gap: its square overflows", field="carrier_freq_hz")
        if self.power.kappa is not None and not (0.0 <= self.power.kappa <= 1.0):
            raise ConfigError("must lie in [0, 1]", field="power.kappa")
        starved = {0.0: self.n_uav, 1.0: self.n_gue}.get(self.power.kappa, 0)
        if self.power.dl == "maxmin" and starved > 0:
            raise ConfigError("0 or 1 leaves a user class without DL power, so max-min is 0",
                              field="power.kappa")
        if self.power.dl not in {"ppa", "wfpa", "maxmin", "uniform"}:
            raise ConfigError(f"unknown strategy {self.power.dl!r}", field="power.dl")
        if self.power.ul not in {"fpc", "maxmin"}:
            raise ConfigError(f"unknown strategy {self.power.ul!r}", field="power.ul")
        if self.association.mode not in {"cf", "uc"}:
            raise ConfigError(f"unknown mode {self.association.mode!r}", field="association.mode")
        if self.association.mode == "uc" and not (
            1 <= self.association.uc_cluster_size <= self.n_ap
        ):
            raise ConfigError(
                f"must lie in [1, n_ap={self.n_ap}]", field="association.uc_cluster_size"
            )
        if self.ap_placement not in {"uniform", "grid"}:
            raise ConfigError(f"unknown placement {self.ap_placement!r}", field="ap_placement")
        if self.ap_placement == "grid" and math.isqrt(self.n_ap) ** 2 != self.n_ap:
            raise ConfigError(f"grid placement needs a square AP count, got {self.n_ap}",
                              field="n_ap")
        if self.mc.batch_count < 2:
            raise ConfigError("must be >= 2 for a standard error", field="mc.batch_count")
        if 0 < self.mc.ub_samples < self.mc.batch_count:
            raise ConfigError("must be 0 or >= mc.batch_count", field="mc.ub_samples")
        samples, batches = self.mc.ub_samples, self.mc.batch_count
        largest = samples // batches + samples % batches
        if 16 * largest * (self.n_users + self.frame.tau_p) * self.n_ap * self.n_ap_antennas > ram:
            raise ConfigError(f"one batch of {largest} UB samples: its raw draws exceed physical "
                              "memory", field="mc.batch_count")
        return self


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_paper():
    """Reference-scale cell-free deployment (100 APs x 4 antennas, 48 GUEs + 12 UAVs)."""
    return SimConfig()


def preset_desk():
    """Small deployment for desk-scale runs: 25 APs, 12 GUEs + 3 UAVs."""
    return replace(preset_paper(), n_ap=25, n_gue=12, n_uav=3, drops=50)


def _mmimo(cf):
    """Multi-cell massive MIMO baseline scaled from the cell-free config cf: 4 BSs
    on a 2x2 grid with cf's total antennas and total DL power, each user served by
    its strongest BS, DL power split uniformly."""
    return replace(
        cf,
        n_ap=4,
        n_ap_antennas=cf.n_ap * cf.n_ap_antennas // 4,
        ap_placement="grid",
        association=AssociationConfig(mode="uc", uc_cluster_size=1),
        power=replace(cf.power, dl_budget_per_ap_w=cf.n_ap * cf.power.dl_budget_per_ap_w / 4,
                      dl="uniform"),
    )


def preset_mmimo():
    """mMIMO baseline of the reference deployment: 4 BSs x 100 antennas, 5 W each."""
    return _mmimo(preset_paper())


def preset_desk_mmimo():
    """mMIMO baseline of the desk deployment: 4 BSs x 25 antennas, 1.25 W each."""
    return _mmimo(preset_desk())


PRESETS = {
    "paper": preset_paper,
    "desk": preset_desk,
    "mmimo": preset_mmimo,
    "desk-mmimo": preset_desk_mmimo,
}


# ---------------------------------------------------------------------------
# YAML (de)serialization
# ---------------------------------------------------------------------------

def _coerce_scalar(value, ftype, path):
    """Light type coercion; also rescues YAML 1.1 floats like `1.9e9` that
    pyyaml leaves as strings (its resolver wants a signed exponent). Only
    Optional fields take null."""
    if value is None:
        if ftype.startswith("Optional["):
            return None
        raise ConfigError("must not be null", field=path)
    base = ftype.replace("Optional[", "").rstrip("]")
    try:
        if base == "str" and not isinstance(value, str):
            raise TypeError(f"expected a string, got {type(value).__name__}")
        if base in ("float", "int") and isinstance(value, bool):  # YAML yes/no/true/false
            raise TypeError(f"expected a number, got {value!r}")
        if base == "float":
            return float(value)
        if base == "int":
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"expected an integer, got {value!r}")
            return int(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        raise ConfigError(str(exc), field=path) from exc
    return value


def _overlay(obj, data, path):
    """Copy of the dataclass `obj` with the (nested) mapping `data` laid over it."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping, got {type(data).__name__}", field=path or "<root>")
    known = {f.name: f for f in fields(obj)}
    changes = {}
    for key, value in data.items():
        sub = f"{path}.{key}" if path else key
        if key not in known:  # an unknown section is named by the keys it sets
            names = [f"{sub}.{k}" for k in value] if isinstance(value, dict) and value else [sub]
            raise ConfigError("unknown key", field=", ".join(names))
        current = getattr(obj, key)
        if is_dataclass(current):  # a nested section: a mapping, never null
            changes[key] = _overlay(current, value, sub)
        elif key == "uav_height_range_m":
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError("expected [low, high]", field=sub)
            changes[key] = tuple(_coerce_scalar(v, "float", sub) for v in value)
        else:
            changes[key] = _coerce_scalar(value, str(known[key].type), sub)
    return replace(obj, **changes)


def config_from_dict(data, base=None):
    """Build a SimConfig from a (nested) dict, layered on `base` when given."""
    return _overlay(SimConfig() if base is None else base, data, "")


def config_to_dict(cfg):
    """Dataclass tree -> plain nested dict (YAML friendly: the one tuple as a list)."""
    return asdict(cfg) | {"uav_height_range_m": list(cfg.uav_height_range_m)}


def load_config(path, base=None):
    """Load and validate a YAML config file; layers over `base` when given."""
    try:
        with open(path, "rb") as fh:  # PyYAML reports bad bytes as a YAMLError
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(str(exc), field="config") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}", field="config") from exc
    if data is None:
        data = {}
    cfg = config_from_dict(data, base=base)
    cfg.validate()
    return cfg

"""Heterogeneous platform model: devices and profiled operator variants.

Profiles are keyed by (operator, variant, device class), not device id:
two CPUs of the same class share profiles. Latency distributions are
normal(mean, std) truncated below at 0.1 x mean. Communication between
two nodes mapped to different devices costs message_size / min(link
bandwidth of the two); same-device communication is free.

File format (strict; unknown fields rejected):

    {"devices":  [{"id","name","class","cores","link_bw_bps","idle_w"}],
     "profiles": [{"op","variant","class","lat_ms_mean","lat_ms_std","energy_mj"}]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .dsl import DEVICE_CLASSES, Diagnostic
from .errors import StackError
from .graph import ComputationGraph


@dataclass(frozen=True)
class Device:
    id: str
    name: str
    device_class: str
    core_count: int  # parallel lanes, each runs one operator instance at a time
    link_bandwidth_bps: float
    idle_power_w: float


@dataclass(frozen=True)
class VariantProfile:
    operator: str
    variant: str
    device_class: str
    latency_mean_ms: float
    latency_std_ms: float
    energy_per_invocation_mj: float


@dataclass(frozen=True)
class SubstrateModel:
    """Devices and profiles; the lookups below read indexes built once per
    instance on first use. The indexes are not fields, so eq, hash and repr
    see only the devices and profiles, and no lookup hands out an index."""

    devices: tuple[Device, ...]
    profiles: tuple[VariantProfile, ...]

    @cached_property
    def _device_index(self) -> dict[str, Device]:
        return {d.id: d for d in reversed(self.devices)}  # the first of an id wins

    @cached_property
    def _profile_index(self) -> dict[tuple[str, str, str], VariantProfile]:
        return {(p.operator, p.variant, p.device_class): p for p in reversed(self.profiles)}

    @cached_property
    def _query_index(self) -> dict[tuple[str, str], tuple[VariantProfile, ...]]:
        """(operator, class) -> its profiles, fastest first, ties on variant name."""
        hits: dict[tuple[str, str], list[VariantProfile]] = {}
        for p in self.profiles:
            hits.setdefault((p.operator, p.device_class), []).append(p)
        return {k: tuple(sorted(v, key=lambda p: (p.latency_mean_ms, p.variant))) for k, v in hits.items()}

    @cached_property
    def _class_index(self) -> dict[str, tuple[str, ...]]:
        classes: dict[str, set[str]] = {}
        for operator, device_class in self._query_index:
            classes.setdefault(operator, set()).add(device_class)
        return {op: tuple(sorted(c)) for op, c in classes.items()}

    def device(self, device_id: str) -> Device:
        return self._device_index[device_id]

    def classes_for(self, operator: str) -> list[str]:
        return list(self._class_index.get(operator, ()))

    def profile(self, operator: str, variant: str, device_class: str) -> VariantProfile:
        return self._profile_index[(operator, variant, device_class)]

    def mean_link_bandwidth(self) -> float:
        return sum(d.link_bandwidth_bps for d in self.devices) / len(self.devices)

    def comm_cost_ms(self, from_device: str, to_device: str, message_bytes: int | None) -> float:
        """Transfer cost between two placements; zero on the same device."""
        if from_device == to_device or not message_bytes:
            return 0.0
        bw = min(self.device(from_device).link_bandwidth_bps, self.device(to_device).link_bandwidth_bps)
        return message_bytes / bw * 1000.0


def query(model: SubstrateModel, operator: str, device_class: str) -> list[VariantProfile]:
    """All variants of `operator` runnable on `device_class`, fastest first.

    Ties on latency break on variant name, so the order is total. An empty
    list means the operator is unsupported on that class.
    """
    return list(model._query_index.get((operator, device_class), ()))


def allowed_classes(node, model: SubstrateModel) -> list[str]:
    """Device classes `node` has profiles on, narrowed by its require_map."""
    classes = model.classes_for(node.name)
    if node.mapping_constraint is not None and node.mapping_constraint[1] == "requirement":
        return [c for c in classes if c == node.mapping_constraint[0]]
    return classes


def assigned_profile(model: SubstrateModel, node, assignment) -> VariantProfile:
    """The profile `node` runs under `assignment` (node id -> (device id, variant))."""
    dev_id, variant = assignment[node.id]
    return model.profile(node.name, variant, model.device(dev_id).device_class)


def validate_coverage(model: SubstrateModel, graph: ComputationGraph) -> list[Diagnostic]:
    """Check every operator node can run somewhere the annotations allow."""
    diags = []
    for n in graph.operator_nodes():
        classes = model.classes_for(n.name)
        if not classes:
            diags.append(Diagnostic("error", "E-NOPROFILE", f"operator '{n.name}' has no profile on any device class"))
            continue
        if not allowed_classes(n, model):
            cls = n.mapping_constraint[0]
            diags.append(
                Diagnostic(
                    "error",
                    "E-MAPCONFLICT",
                    f"'{n.name}' is required on {cls} but has no {cls} profile (available: {', '.join(classes)})",
                )
            )
    return diags


# ---------------------------------------------------------------------------
# Load

_DEVICE_FIELDS = {"id", "name", "class", "cores", "link_bw_bps", "idle_w"}
_PROFILE_FIELDS = {"op", "variant", "class", "lat_ms_mean", "lat_ms_std", "energy_mj"}


def _schema_err(message: str, path: str):
    raise StackError("E-SCHEMA", message, path)


def finite_number(value) -> bool:
    """An int or float with a finite value. Python's json module accepts
    NaN and Infinity, and a bool is an int to isinstance; neither is a
    number in an input file."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_strings(row: dict, keys: tuple[str, ...], path: str):
    for key in keys:
        if not isinstance(row[key], str):
            _schema_err(f"{key} must be a string", f"{path}/{key}")


def _check_fields(row: dict, allowed: set[str], path: str):
    if not isinstance(row, dict):
        _schema_err("expected an object", path)
    unknown = set(row) - allowed
    if unknown:
        _schema_err(f"unknown field(s): {', '.join(sorted(unknown))}", path)
    missing = allowed - set(row)
    if missing:
        _schema_err(f"missing field(s): {', '.join(sorted(missing))}", path)


def model_from_dict(doc: dict) -> SubstrateModel:
    if not isinstance(doc, dict) or set(doc) != {"devices", "profiles"}:
        _schema_err("top level must have exactly 'devices' and 'profiles'", "/")
    if not isinstance(doc["devices"], list) or not doc["devices"]:
        _schema_err("devices must be a non-empty array", "/devices")
    if not isinstance(doc["profiles"], list):
        _schema_err("profiles must be an array", "/profiles")

    devices = []
    seen_ids = set()
    for i, row in enumerate(doc["devices"]):
        path = f"/devices/{i}"
        _check_fields(row, _DEVICE_FIELDS, path)
        _check_strings(row, ("id", "name"), path)
        if row["class"] not in DEVICE_CLASSES:
            _schema_err(f"unknown device class '{row['class']}'", path + "/class")
        if not (finite_number(row["cores"]) and isinstance(row["cores"], int) and row["cores"] >= 1):
            _schema_err("cores must be a positive integer", path + "/cores")
        if not (finite_number(row["link_bw_bps"]) and row["link_bw_bps"] > 0):
            _schema_err("link_bw_bps must be a finite number > 0", path + "/link_bw_bps")
        if not (finite_number(row["idle_w"]) and row["idle_w"] >= 0):
            _schema_err("idle_w must be a finite number >= 0", path + "/idle_w")
        if row["id"] in seen_ids:
            raise StackError("E-DUPKEY", f"duplicate device id '{row['id']}'", path + "/id")
        seen_ids.add(row["id"])
        devices.append(
            Device(row["id"], row["name"], row["class"], row["cores"], float(row["link_bw_bps"]), float(row["idle_w"]))
        )

    profiles = []
    seen_keys = set()
    for i, row in enumerate(doc["profiles"]):
        path = f"/profiles/{i}"
        _check_fields(row, _PROFILE_FIELDS, path)
        _check_strings(row, ("op", "variant"), path)
        if row["class"] not in DEVICE_CLASSES:
            _schema_err(f"unknown device class '{row['class']}'", path + "/class")
        if not (finite_number(row["lat_ms_mean"]) and row["lat_ms_mean"] > 0):
            _schema_err("lat_ms_mean must be a finite number > 0", path + "/lat_ms_mean")
        if not (finite_number(row["lat_ms_std"]) and row["lat_ms_std"] >= 0):
            _schema_err("lat_ms_std must be a finite number >= 0", path + "/lat_ms_std")
        if not (finite_number(row["energy_mj"]) and row["energy_mj"] >= 0):
            _schema_err("energy_mj must be a finite number >= 0", path + "/energy_mj")
        key = (row["op"], row["variant"], row["class"])
        if key in seen_keys:
            raise StackError("E-DUPKEY", f"duplicate profile {key}", path)
        seen_keys.add(key)
        profiles.append(
            VariantProfile(
                row["op"], row["variant"], row["class"], float(row["lat_ms_mean"]), float(row["lat_ms_std"]), float(row["energy_mj"])
            )
        )
    return SubstrateModel(tuple(devices), tuple(profiles))


def load_profiles(path: str) -> SubstrateModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StackError("E-IO", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StackError("E-SCHEMA", f"{path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


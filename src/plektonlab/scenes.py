"""Scene files: named cone/wedge paths described by apex, central angle,
half-opening and sheet index.

Format (JSON):

    {
      "frame": {"reference_angle": 1.5707963267948966},
      "cones": [
        {"id": "C1", "apex": [0, 0, 0], "center_angle": 0.0,
         "half_opening": 0.1, "sheet": 0, "kind": "cone"}
      ]
    }

``kind`` is one of "cone", "wedge", "cone-complement"; wedges may omit
``half_opening`` (it is pi/2 by definition).  Every number must be a finite
JSON number; a boolean or a string is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cones import (
    KIND_CONE,
    KIND_CONE_COMPLEMENT,
    KIND_WEDGE,
    ConePath,
    ReferenceFrame,
    cone_path,
    wedge_path,
)
from .minkowski import MVec3
from .sectors import _finite, _integer, _load_json
from .tolerances import WEDGE_HALF_OPENING_TOL


class SceneError(ValueError):
    """Scene file failed validation."""


@dataclass
class Scene:
    frame: ReferenceFrame
    paths: dict[str, ConePath] = field(default_factory=dict)

    def __getitem__(self, key: str) -> ConePath:
        return self.paths[key]

    def ids(self) -> list[str]:
        return list(self.paths)


def _build_entry(entry: dict, index: int) -> tuple[str, ConePath]:
    """The id and path of one entry; every error names the entry."""
    try:
        if not isinstance(entry, dict):
            raise SceneError("expected an object")
        cid, apex_raw, center = entry["id"], entry["apex"], entry["center_angle"]
        if not isinstance(cid, str) or not cid:
            raise SceneError("id must be a non-empty string")
        if not (isinstance(apex_raw, list) and len(apex_raw) == 3):
            raise SceneError("apex must be a 3-element array")
        apex = MVec3(*(_finite(x, f"apex[{k}]", SceneError) for k, x in enumerate(apex_raw)))
        center = _finite(center, "center_angle", SceneError)
        sheet = _integer(entry.get("sheet", 0), "sheet")
        kind = entry.get("kind", KIND_CONE)
        if kind not in (KIND_CONE, KIND_WEDGE, KIND_CONE_COMPLEMENT):
            raise SceneError(f"unknown kind {kind!r}")
        if kind == KIND_WEDGE:
            half = _finite(entry.get("half_opening", math.pi / 2.0), "half_opening", SceneError)
            if abs(half - math.pi / 2.0) > WEDGE_HALF_OPENING_TOL:
                raise SceneError("wedges have half_opening pi/2")
            return cid, wedge_path(apex, center, sheet)
        half = _finite(entry["half_opening"], "half_opening", SceneError)
        return cid, cone_path(apex, center, half, sheet, kind=kind)
    except KeyError as exc:
        raise SceneError(f"cones[{index}]: missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise SceneError(f"cones[{index}]: {exc}") from None


def parse_scene(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("scene document must be an object")
    frame_doc = doc.get("frame", {})
    if not isinstance(frame_doc, dict):
        raise SceneError("frame must be an object")
    frame = ReferenceFrame(_finite(frame_doc.get("reference_angle", math.pi / 2.0),
                                   "frame: reference_angle", SceneError))
    cones = doc.get("cones")
    if not isinstance(cones, list):
        raise SceneError("scene must contain a 'cones' array")
    scene = Scene(frame=frame)
    for i, entry in enumerate(cones):
        cid, path = _build_entry(entry, i)
        if cid in scene.paths:
            raise SceneError(f"cones[{i}]: duplicate id {cid!r}")
        scene.paths[cid] = path
    return scene


def load_scene(filename) -> Scene:
    doc = _load_json(filename, SceneError)
    try:
        return parse_scene(doc)
    except SceneError as exc:
        raise SceneError(f"{filename}: {exc}") from None

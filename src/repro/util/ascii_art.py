"""Terminal rendering of 2-D scalar fields (examples/debugging aid)."""

from __future__ import annotations

import numpy as np

#: Default luminance ramp, light to dark.
DEFAULT_RAMP = " .:-=+*#"


def render_field(
    field: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    mask_char: str = "O",
    ramp: str = DEFAULT_RAMP,
    max_width: int = 72,
    max_height: int = 36,
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    """Render a 2-D field as ASCII, x horizontal and y upward.

    Parameters
    ----------
    field:
        2-D array indexed ``[x, y]``.
    mask:
        Optional boolean array of the same shape; True cells render as
        *mask_char* (solid walls).
    ramp:
        Characters from low to high value.
    max_width / max_height:
        The field is strided down to fit (no interpolation).
    vmin / vmax:
        Value range; defaults to the (unmasked) field extrema.
    """
    field = np.asarray(field)
    if field.ndim != 2:
        raise ValueError(f"field must be 2-D, got shape {field.shape}")
    if mask is not None and mask.shape != field.shape:
        raise ValueError("mask shape must match field shape")
    if not ramp:
        raise ValueError("ramp must be non-empty")

    nx, ny = field.shape
    sx = max(1, int(np.ceil(nx / max_width)))
    sy = max(1, int(np.ceil(ny / max_height)))
    sub = field[::sx, ::sy]
    sub_mask = mask[::sx, ::sy] if mask is not None else None

    values = sub if sub_mask is None else sub[~sub_mask]
    if values.size == 0:
        raise ValueError("nothing to render (fully masked)")
    lo = float(values.min()) if vmin is None else vmin
    hi = float(values.max()) if vmax is None else vmax
    span = hi - lo if hi > lo else 1.0

    lines = []
    for j in range(sub.shape[1] - 1, -1, -1):
        row = []
        for i in range(sub.shape[0]):
            if sub_mask is not None and sub_mask[i, j]:
                row.append(mask_char)
            else:
                level = int((sub[i, j] - lo) / span * (len(ramp) - 1) + 0.5)
                row.append(ramp[min(max(level, 0), len(ramp) - 1)])
        lines.append("".join(row))
    return "\n".join(lines)

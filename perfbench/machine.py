"""The machine a result was measured on.

A speed claim compares two results only when their machine records match.
The CPU model and cache sizes come from the kernel's read-only CPU
descriptions; a field is ``None`` (or ``unknown``) where those are not
readable.
"""

from __future__ import annotations

import glob
import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_bytes() -> dict[str, int]:
    """Total data/unified cache bytes per level, summed over distinct caches."""
    seen: dict[tuple[str, str], int] = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu*/cache/index*"):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = size_bytes(_read(os.path.join(index, "size")))
        shared = _read(os.path.join(index, "shared_cpu_list"))
        if level and size and kind in ("Unified", "Data"):
            seen[(f"L{level}", shared or index)] = size
    totals: dict[str, int] = {}
    for (level, _shared), size in seen.items():
        totals[level] = totals.get(level, 0) + size
    return totals


def size_bytes(text: str | None) -> int | None:
    """'4096K' -> 4194304; None when unparseable."""
    if not text:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1].upper(), 1)
    digits = text[:-1] if text[-1].isalpha() else text
    return int(digits) * scale if digits.isdigit() else None


def record(numpy_version: str) -> dict:
    caches = cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }

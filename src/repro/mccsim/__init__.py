"""mcc baseline meter: every array a heap mxArray behind library calls."""

from repro.mccsim.executor import MXARRAY_HEADER_BYTES, MccMeter

__all__ = ["MXARRAY_HEADER_BYTES", "MccMeter"]

"""Address profiling (Section 4.3 and the Table 2 methodology)."""

from repro.profiling.address_profile import (
    AddressProfile,
    class_columns,
    profile_trace,
)

__all__ = ["AddressProfile", "class_columns", "profile_trace"]

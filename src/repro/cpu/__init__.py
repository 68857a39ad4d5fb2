"""CPU substrate: caches, cores and trace types (replaces gem5)."""

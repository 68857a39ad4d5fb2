"""DRAM timing substrate (replaces DRAMSim2 in the paper's toolchain)."""

"""The paper's primary contribution: shadow-block data duplication."""

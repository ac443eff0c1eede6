"""Graph substrate: CSR adjacency, synthetic generators, vertex rankings."""

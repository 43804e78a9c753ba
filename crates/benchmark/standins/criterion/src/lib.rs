//! Empty stand-in: the benchmark build needs this name to resolve, not its code.

"""Path descriptions, partitions, chords and certificates."""

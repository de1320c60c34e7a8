"""Indexed binary min-heap over per-agent keys.

Supports O(log n) key updates for the handful of agents whose profit
changes each step, and O(1) access to the minimum.  Ties are broken by
the lower agent index, matching a first-minimum linear scan.
"""

from __future__ import annotations


class IndexedMinHeap:
    def __init__(self, values):
        # entries are (key, index) tuples; pos[i] = heap slot of index i
        self._heap = [(float(v), i) for i, v in enumerate(values)]
        self._heap.sort()
        self._pos = [0] * len(self._heap)
        for slot, (_, i) in enumerate(self._heap):
            self._pos[i] = slot

    def __len__(self):
        return len(self._heap)

    def min_index(self):
        """Index holding the smallest key (lowest index on ties)."""
        if not self._heap:
            raise IndexError("empty heap")
        return self._heap[0][1]

    def update(self, i, value):
        """Change the key of index i and restore the heap property."""
        heap, pos = self._heap, self._pos
        slot = pos[i]
        old = heap[slot]
        entry = (float(value), i)
        heap[slot] = entry
        if entry < old:
            # sift up
            while slot > 0:
                parent = (slot - 1) >> 1
                pe = heap[parent]
                if entry < pe:
                    heap[slot] = pe
                    pos[pe[1]] = slot
                    slot = parent
                else:
                    break
            heap[slot] = entry
            pos[i] = slot
        else:
            # sift down
            n = len(heap)
            while True:
                child = 2 * slot + 1
                if child >= n:
                    break
                right = child + 1
                if right < n and heap[right] < heap[child]:
                    child = right
                ce = heap[child]
                if ce < entry:
                    heap[slot] = ce
                    pos[ce[1]] = slot
                    slot = child
                else:
                    break
            heap[slot] = entry
            pos[i] = slot

    def check(self):
        """Verify heap and position invariants (tests only)."""
        heap, pos = self._heap, self._pos
        for slot in range(1, len(heap)):
            assert heap[(slot - 1) >> 1] <= heap[slot], "heap order violated"
        for slot, (_, i) in enumerate(heap):
            assert pos[i] == slot, "position map out of sync"

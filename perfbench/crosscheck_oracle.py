"""Cross-check the benchmark's verdict oracle against networkx.

    python3 perfbench/crosscheck_oracle.py [MAX_N]

For every connected labelled graph on up to MAX_N vertices (default 5),
the oracle's distance-regular verdict must equal ``nx.is_distance_regular``
and its intersection array must equal ``nx.intersection_array``. networkx
is a test-only dependency, so the benchmark itself does not import it.
Exits 1 on the first disagreement.
"""

import sys

import networkx as nx

import corpus


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    for n in range(1, max_n + 1):
        counts = {corpus.DR: 0, corpus.DBR: 0, corpus.NOT_PDR: 0}
        graphs = corpus.connected_graphs(n)
        for nbrs in graphs:
            verdict, arrays = corpus.classify(nbrs)
            counts[verdict] += 1
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n) if nbrs[u] >> v & 1)
            if nx.is_distance_regular(g) != (verdict == corpus.DR):
                print(f"n={n} {corpus.graph6(nbrs)}: oracle {verdict}, networkx disagrees")
                return 1
            if verdict == corpus.DR and n > 1:
                b, c = nx.intersection_array(g)
                if (tuple(b), tuple(c)) != arrays[0][:2]:
                    print(f"n={n} {corpus.graph6(nbrs)}: arrays {arrays[0][:2]} vs networkx {(b, c)}")
                    return 1
        print(f"n={n}: {len(graphs)} connected graphs, {counts} -- networkx agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())

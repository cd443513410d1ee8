package schema

// TPC-H table and workload definitions.
//
// Column byte widths follow the fixed-width physical encoding the paper's
// cost model assumes: INTEGER and IDENTIFIER 4 bytes, DECIMAL 8, DATE 4,
// CHAR(n) and VARCHAR(n) their declared width. Row counts scale linearly
// with the scale factor (Nation and Region are fixed-size).
//
// The per-query attribute reference sets were extracted from the TPC-H
// specification's 22 query templates: an attribute is referenced if it
// appears anywhere in the query (SELECT list, WHERE, JOIN, GROUP BY,
// ORDER BY, or a subquery), because the unified setting must read it.

// TPCH returns the TPC-H benchmark at the given scale factor.
// The paper uses sf = 10. It panics on a scale factor that puts a table
// past MaxTableBytes, which BenchmarkByName refuses with an error.
func TPCH(sf float64) *Benchmark { return mustBenchmark(tpch(sf)) }

func tpch(sf float64) (*Benchmark, error) {
	scale := scaler{sf: sf}
	customer := scale.table("customer", 150_000, []Column{
		{Name: "c_custkey", Kind: KindInt, Size: 4},
		{Name: "c_name", Kind: KindVarchar, Size: 25},
		{Name: "c_address", Kind: KindVarchar, Size: 40},
		{Name: "c_nationkey", Kind: KindInt, Size: 4},
		{Name: "c_phone", Kind: KindChar, Size: 15},
		{Name: "c_acctbal", Kind: KindDecimal, Size: 8},
		{Name: "c_mktsegment", Kind: KindChar, Size: 10},
		{Name: "c_comment", Kind: KindVarchar, Size: 117},
	})
	lineitem := scale.table("lineitem", 6_000_000, []Column{
		{Name: "l_orderkey", Kind: KindInt, Size: 4},
		{Name: "l_partkey", Kind: KindInt, Size: 4},
		{Name: "l_suppkey", Kind: KindInt, Size: 4},
		{Name: "l_linenumber", Kind: KindInt, Size: 4},
		{Name: "l_quantity", Kind: KindDecimal, Size: 8},
		{Name: "l_extendedprice", Kind: KindDecimal, Size: 8},
		{Name: "l_discount", Kind: KindDecimal, Size: 8},
		{Name: "l_tax", Kind: KindDecimal, Size: 8},
		{Name: "l_returnflag", Kind: KindChar, Size: 1},
		{Name: "l_linestatus", Kind: KindChar, Size: 1},
		{Name: "l_shipdate", Kind: KindDate, Size: 4},
		{Name: "l_commitdate", Kind: KindDate, Size: 4},
		{Name: "l_receiptdate", Kind: KindDate, Size: 4},
		{Name: "l_shipinstruct", Kind: KindChar, Size: 25},
		{Name: "l_shipmode", Kind: KindChar, Size: 10},
		{Name: "l_comment", Kind: KindVarchar, Size: 44},
	})
	nation := MustTable("nation", 25, []Column{
		{Name: "n_nationkey", Kind: KindInt, Size: 4},
		{Name: "n_name", Kind: KindChar, Size: 25},
		{Name: "n_regionkey", Kind: KindInt, Size: 4},
		{Name: "n_comment", Kind: KindVarchar, Size: 152},
	})
	orders := scale.table("orders", 1_500_000, []Column{
		{Name: "o_orderkey", Kind: KindInt, Size: 4},
		{Name: "o_custkey", Kind: KindInt, Size: 4},
		{Name: "o_orderstatus", Kind: KindChar, Size: 1},
		{Name: "o_totalprice", Kind: KindDecimal, Size: 8},
		{Name: "o_orderdate", Kind: KindDate, Size: 4},
		{Name: "o_orderpriority", Kind: KindChar, Size: 15},
		{Name: "o_clerk", Kind: KindChar, Size: 15},
		{Name: "o_shippriority", Kind: KindInt, Size: 4},
		{Name: "o_comment", Kind: KindVarchar, Size: 79},
	})
	part := scale.table("part", 200_000, []Column{
		{Name: "p_partkey", Kind: KindInt, Size: 4},
		{Name: "p_name", Kind: KindVarchar, Size: 55},
		{Name: "p_mfgr", Kind: KindChar, Size: 25},
		{Name: "p_brand", Kind: KindChar, Size: 10},
		{Name: "p_type", Kind: KindVarchar, Size: 25},
		{Name: "p_size", Kind: KindInt, Size: 4},
		{Name: "p_container", Kind: KindChar, Size: 10},
		{Name: "p_retailprice", Kind: KindDecimal, Size: 8},
		{Name: "p_comment", Kind: KindVarchar, Size: 23},
	})
	partsupp := scale.table("partsupp", 800_000, []Column{
		{Name: "ps_partkey", Kind: KindInt, Size: 4},
		{Name: "ps_suppkey", Kind: KindInt, Size: 4},
		{Name: "ps_availqty", Kind: KindInt, Size: 4},
		{Name: "ps_supplycost", Kind: KindDecimal, Size: 8},
		{Name: "ps_comment", Kind: KindVarchar, Size: 199},
	})
	region := MustTable("region", 5, []Column{
		{Name: "r_regionkey", Kind: KindInt, Size: 4},
		{Name: "r_name", Kind: KindChar, Size: 25},
		{Name: "r_comment", Kind: KindVarchar, Size: 152},
	})
	supplier := scale.table("supplier", 10_000, []Column{
		{Name: "s_suppkey", Kind: KindInt, Size: 4},
		{Name: "s_name", Kind: KindChar, Size: 25},
		{Name: "s_address", Kind: KindVarchar, Size: 40},
		{Name: "s_nationkey", Kind: KindInt, Size: 4},
		{Name: "s_phone", Kind: KindChar, Size: 15},
		{Name: "s_acctbal", Kind: KindDecimal, Size: 8},
		{Name: "s_comment", Kind: KindVarchar, Size: 101},
	})

	if scale.err != nil {
		return nil, scale.err
	}

	c, l, n, o, p, ps, r, s := customer, lineitem, nation, orders, part, partsupp, region, supplier

	queries := []Query{
		{ID: "Q1", Refs: map[string]Set{
			"lineitem": l.Attrs("l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate"),
		}},
		{ID: "Q2", Refs: map[string]Set{
			"part":     p.Attrs("p_partkey", "p_mfgr", "p_size", "p_type"),
			"supplier": s.Attrs("s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"),
			"partsupp": ps.Attrs("ps_partkey", "ps_suppkey", "ps_supplycost"),
			"nation":   n.Attrs("n_nationkey", "n_name", "n_regionkey"),
			"region":   r.Attrs("r_regionkey", "r_name"),
		}},
		{ID: "Q3", Refs: map[string]Set{
			"customer": c.Attrs("c_custkey", "c_mktsegment"),
			"orders":   o.Attrs("o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"),
			"lineitem": l.Attrs("l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"),
		}},
		{ID: "Q4", Refs: map[string]Set{
			"orders":   o.Attrs("o_orderkey", "o_orderdate", "o_orderpriority"),
			"lineitem": l.Attrs("l_orderkey", "l_commitdate", "l_receiptdate"),
		}},
		{ID: "Q5", Refs: map[string]Set{
			"customer": c.Attrs("c_custkey", "c_nationkey"),
			"orders":   o.Attrs("o_orderkey", "o_custkey", "o_orderdate"),
			"lineitem": l.Attrs("l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"),
			"supplier": s.Attrs("s_suppkey", "s_nationkey"),
			"nation":   n.Attrs("n_nationkey", "n_name", "n_regionkey"),
			"region":   r.Attrs("r_regionkey", "r_name"),
		}},
		{ID: "Q6", Refs: map[string]Set{
			"lineitem": l.Attrs("l_quantity", "l_extendedprice", "l_discount", "l_shipdate"),
		}},
		{ID: "Q7", Refs: map[string]Set{
			"supplier": s.Attrs("s_suppkey", "s_nationkey"),
			"lineitem": l.Attrs("l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
			"orders":   o.Attrs("o_orderkey", "o_custkey"),
			"customer": c.Attrs("c_custkey", "c_nationkey"),
			"nation":   n.Attrs("n_nationkey", "n_name"),
		}},
		{ID: "Q8", Refs: map[string]Set{
			"part":     p.Attrs("p_partkey", "p_type"),
			"supplier": s.Attrs("s_suppkey", "s_nationkey"),
			"lineitem": l.Attrs("l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"),
			"orders":   o.Attrs("o_orderkey", "o_custkey", "o_orderdate"),
			"customer": c.Attrs("c_custkey", "c_nationkey"),
			"nation":   n.Attrs("n_nationkey", "n_regionkey", "n_name"),
			"region":   r.Attrs("r_regionkey", "r_name"),
		}},
		{ID: "Q9", Refs: map[string]Set{
			"part":     p.Attrs("p_partkey", "p_name"),
			"supplier": s.Attrs("s_suppkey", "s_nationkey"),
			"lineitem": l.Attrs("l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"),
			"partsupp": ps.Attrs("ps_partkey", "ps_suppkey", "ps_supplycost"),
			"orders":   o.Attrs("o_orderkey", "o_orderdate"),
			"nation":   n.Attrs("n_nationkey", "n_name"),
		}},
		{ID: "Q10", Refs: map[string]Set{
			"customer": c.Attrs("c_custkey", "c_name", "c_acctbal", "c_address", "c_phone", "c_comment", "c_nationkey"),
			"orders":   o.Attrs("o_orderkey", "o_custkey", "o_orderdate"),
			"lineitem": l.Attrs("l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"),
			"nation":   n.Attrs("n_nationkey", "n_name"),
		}},
		{ID: "Q11", Refs: map[string]Set{
			"partsupp": ps.Attrs("ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"),
			"supplier": s.Attrs("s_suppkey", "s_nationkey"),
			"nation":   n.Attrs("n_nationkey", "n_name"),
		}},
		{ID: "Q12", Refs: map[string]Set{
			"orders":   o.Attrs("o_orderkey", "o_orderpriority"),
			"lineitem": l.Attrs("l_orderkey", "l_shipmode", "l_commitdate", "l_shipdate", "l_receiptdate"),
		}},
		{ID: "Q13", Refs: map[string]Set{
			"customer": c.Attrs("c_custkey"),
			"orders":   o.Attrs("o_orderkey", "o_custkey", "o_comment"),
		}},
		{ID: "Q14", Refs: map[string]Set{
			"lineitem": l.Attrs("l_partkey", "l_extendedprice", "l_discount", "l_shipdate"),
			"part":     p.Attrs("p_partkey", "p_type"),
		}},
		{ID: "Q15", Refs: map[string]Set{
			"lineitem": l.Attrs("l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
			"supplier": s.Attrs("s_suppkey", "s_name", "s_address", "s_phone"),
		}},
		{ID: "Q16", Refs: map[string]Set{
			"partsupp": ps.Attrs("ps_partkey", "ps_suppkey"),
			"part":     p.Attrs("p_partkey", "p_brand", "p_type", "p_size"),
			"supplier": s.Attrs("s_suppkey", "s_comment"),
		}},
		{ID: "Q17", Refs: map[string]Set{
			"lineitem": l.Attrs("l_partkey", "l_quantity", "l_extendedprice"),
			"part":     p.Attrs("p_partkey", "p_brand", "p_container"),
		}},
		{ID: "Q18", Refs: map[string]Set{
			"customer": c.Attrs("c_custkey", "c_name"),
			"orders":   o.Attrs("o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"),
			"lineitem": l.Attrs("l_orderkey", "l_quantity"),
		}},
		{ID: "Q19", Refs: map[string]Set{
			"lineitem": l.Attrs("l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipinstruct", "l_shipmode"),
			"part":     p.Attrs("p_partkey", "p_brand", "p_container", "p_size"),
		}},
		{ID: "Q20", Refs: map[string]Set{
			"supplier": s.Attrs("s_suppkey", "s_name", "s_address", "s_nationkey"),
			"nation":   n.Attrs("n_nationkey", "n_name"),
			"partsupp": ps.Attrs("ps_partkey", "ps_suppkey", "ps_availqty"),
			"part":     p.Attrs("p_partkey", "p_name"),
			"lineitem": l.Attrs("l_partkey", "l_suppkey", "l_quantity", "l_shipdate"),
		}},
		{ID: "Q21", Refs: map[string]Set{
			"supplier": s.Attrs("s_suppkey", "s_name", "s_nationkey"),
			"lineitem": l.Attrs("l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"),
			"orders":   o.Attrs("o_orderkey", "o_orderstatus"),
			"nation":   n.Attrs("n_nationkey", "n_name"),
		}},
		{ID: "Q22", Refs: map[string]Set{
			"customer": c.Attrs("c_custkey", "c_phone", "c_acctbal"),
			"orders":   o.Attrs("o_custkey"),
		}},
	}

	return &Benchmark{
		Name:     "TPC-H",
		Tables:   []*Table{customer, lineitem, nation, orders, part, partsupp, region, supplier},
		Workload: Workload{Queries: queries},
	}, nil
}

package schema

import "math"

// Star Schema Benchmark (SSB) definitions, used by the paper's Table 5 to
// show that a less fragmented access pattern yields (slightly) wider column
// groups. The 13 query flights Q1.1-Q4.3 follow O'Neil et al.'s SSB spec;
// as with TPC-H, an attribute is referenced if it appears anywhere in the
// query template.

// SSB returns the Star Schema Benchmark at the given scale factor. It
// panics on a scale factor that puts a table past MaxTableBytes, which
// BenchmarkByName refuses with an error.
func SSB(sf float64) *Benchmark { return mustBenchmark(ssb(sf)) }

func ssb(sf float64) (*Benchmark, error) {
	scale := scaler{sf: sf}
	// Per the SSB spec, PART grows logarithmically with the scale factor.
	partRows := 200_000.0
	if sf > 1 {
		partRows = 200_000 * (1 + math.Floor(math.Log2(sf)))
	}

	lineorder := scale.table("lineorder", 6_000_000, []Column{
		{Name: "lo_orderkey", Kind: KindInt, Size: 4},
		{Name: "lo_linenumber", Kind: KindInt, Size: 4},
		{Name: "lo_custkey", Kind: KindInt, Size: 4},
		{Name: "lo_partkey", Kind: KindInt, Size: 4},
		{Name: "lo_suppkey", Kind: KindInt, Size: 4},
		{Name: "lo_orderdate", Kind: KindDate, Size: 4},
		{Name: "lo_orderpriority", Kind: KindChar, Size: 15},
		{Name: "lo_shippriority", Kind: KindChar, Size: 1},
		{Name: "lo_quantity", Kind: KindDecimal, Size: 8},
		{Name: "lo_extendedprice", Kind: KindDecimal, Size: 8},
		{Name: "lo_ordtotalprice", Kind: KindDecimal, Size: 8},
		{Name: "lo_discount", Kind: KindDecimal, Size: 8},
		{Name: "lo_revenue", Kind: KindDecimal, Size: 8},
		{Name: "lo_supplycost", Kind: KindDecimal, Size: 8},
		{Name: "lo_tax", Kind: KindDecimal, Size: 8},
		{Name: "lo_commitdate", Kind: KindDate, Size: 4},
		{Name: "lo_shipmode", Kind: KindChar, Size: 10},
	})
	customer := scale.table("customer", 30_000, []Column{
		{Name: "c_custkey", Kind: KindInt, Size: 4},
		{Name: "c_name", Kind: KindVarchar, Size: 25},
		{Name: "c_address", Kind: KindVarchar, Size: 25},
		{Name: "c_city", Kind: KindChar, Size: 10},
		{Name: "c_nation", Kind: KindChar, Size: 15},
		{Name: "c_region", Kind: KindChar, Size: 12},
		{Name: "c_phone", Kind: KindChar, Size: 15},
		{Name: "c_mktsegment", Kind: KindChar, Size: 10},
	})
	supplier := scale.table("supplier", 2_000, []Column{
		{Name: "s_suppkey", Kind: KindInt, Size: 4},
		{Name: "s_name", Kind: KindChar, Size: 25},
		{Name: "s_address", Kind: KindVarchar, Size: 25},
		{Name: "s_city", Kind: KindChar, Size: 10},
		{Name: "s_nation", Kind: KindChar, Size: 15},
		{Name: "s_region", Kind: KindChar, Size: 12},
		{Name: "s_phone", Kind: KindChar, Size: 15},
	})
	part := scale.rows("part", partRows, []Column{
		{Name: "p_partkey", Kind: KindInt, Size: 4},
		{Name: "p_name", Kind: KindVarchar, Size: 22},
		{Name: "p_mfgr", Kind: KindChar, Size: 6},
		{Name: "p_category", Kind: KindChar, Size: 7},
		{Name: "p_brand1", Kind: KindChar, Size: 9},
		{Name: "p_color", Kind: KindVarchar, Size: 11},
		{Name: "p_type", Kind: KindVarchar, Size: 25},
		{Name: "p_size", Kind: KindInt, Size: 4},
		{Name: "p_container", Kind: KindChar, Size: 10},
	})
	date := MustTable("date", 2_556, []Column{
		{Name: "d_datekey", Kind: KindInt, Size: 4},
		{Name: "d_date", Kind: KindChar, Size: 18},
		{Name: "d_dayofweek", Kind: KindChar, Size: 9},
		{Name: "d_month", Kind: KindChar, Size: 9},
		{Name: "d_year", Kind: KindInt, Size: 4},
		{Name: "d_yearmonthnum", Kind: KindInt, Size: 4},
		{Name: "d_yearmonth", Kind: KindChar, Size: 7},
		{Name: "d_daynuminweek", Kind: KindInt, Size: 4},
		{Name: "d_daynuminmonth", Kind: KindInt, Size: 4},
		{Name: "d_daynuminyear", Kind: KindInt, Size: 4},
		{Name: "d_monthnuminyear", Kind: KindInt, Size: 4},
		{Name: "d_weeknuminyear", Kind: KindInt, Size: 4},
		{Name: "d_sellingseason", Kind: KindVarchar, Size: 12},
		{Name: "d_lastdayinweekfl", Kind: KindChar, Size: 1},
		{Name: "d_holidayfl", Kind: KindChar, Size: 1},
		{Name: "d_weekdayfl", Kind: KindChar, Size: 1},
	})
	if scale.err != nil {
		return nil, scale.err
	}

	lo, cu, su, pa, da := lineorder, customer, supplier, part, date

	q1line := lo.Attrs("lo_extendedprice", "lo_discount", "lo_quantity", "lo_orderdate")
	q2line := lo.Attrs("lo_revenue", "lo_orderdate", "lo_partkey", "lo_suppkey")
	q3line := lo.Attrs("lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue")
	q4line := lo.Attrs("lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost")

	queries := []Query{
		{ID: "Q1.1", Refs: map[string]Set{
			"lineorder": q1line,
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
		{ID: "Q1.2", Refs: map[string]Set{
			"lineorder": q1line,
			"date":      da.Attrs("d_datekey", "d_yearmonthnum"),
		}},
		{ID: "Q1.3", Refs: map[string]Set{
			"lineorder": q1line,
			"date":      da.Attrs("d_datekey", "d_weeknuminyear", "d_year"),
		}},
		{ID: "Q2.1", Refs: map[string]Set{
			"lineorder": q2line,
			"date":      da.Attrs("d_datekey", "d_year"),
			"part":      pa.Attrs("p_partkey", "p_category", "p_brand1"),
			"supplier":  su.Attrs("s_suppkey", "s_region"),
		}},
		{ID: "Q2.2", Refs: map[string]Set{
			"lineorder": q2line,
			"date":      da.Attrs("d_datekey", "d_year"),
			"part":      pa.Attrs("p_partkey", "p_brand1"),
			"supplier":  su.Attrs("s_suppkey", "s_region"),
		}},
		{ID: "Q2.3", Refs: map[string]Set{
			"lineorder": q2line,
			"date":      da.Attrs("d_datekey", "d_year"),
			"part":      pa.Attrs("p_partkey", "p_brand1"),
			"supplier":  su.Attrs("s_suppkey", "s_region"),
		}},
		{ID: "Q3.1", Refs: map[string]Set{
			"lineorder": q3line,
			"customer":  cu.Attrs("c_custkey", "c_region", "c_nation"),
			"supplier":  su.Attrs("s_suppkey", "s_region", "s_nation"),
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
		{ID: "Q3.2", Refs: map[string]Set{
			"lineorder": q3line,
			"customer":  cu.Attrs("c_custkey", "c_nation", "c_city"),
			"supplier":  su.Attrs("s_suppkey", "s_nation", "s_city"),
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
		{ID: "Q3.3", Refs: map[string]Set{
			"lineorder": q3line,
			"customer":  cu.Attrs("c_custkey", "c_city"),
			"supplier":  su.Attrs("s_suppkey", "s_city"),
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
		{ID: "Q3.4", Refs: map[string]Set{
			"lineorder": q3line,
			"customer":  cu.Attrs("c_custkey", "c_city"),
			"supplier":  su.Attrs("s_suppkey", "s_city"),
			"date":      da.Attrs("d_datekey", "d_yearmonth"),
		}},
		{ID: "Q4.1", Refs: map[string]Set{
			"lineorder": q4line,
			"customer":  cu.Attrs("c_custkey", "c_region", "c_nation"),
			"supplier":  su.Attrs("s_suppkey", "s_region"),
			"part":      pa.Attrs("p_partkey", "p_mfgr"),
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
		{ID: "Q4.2", Refs: map[string]Set{
			"lineorder": q4line,
			"customer":  cu.Attrs("c_custkey", "c_region"),
			"supplier":  su.Attrs("s_suppkey", "s_region", "s_nation"),
			"part":      pa.Attrs("p_partkey", "p_mfgr", "p_category"),
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
		{ID: "Q4.3", Refs: map[string]Set{
			"lineorder": q4line,
			"customer":  cu.Attrs("c_custkey", "c_region"),
			"supplier":  su.Attrs("s_suppkey", "s_nation", "s_city"),
			"part":      pa.Attrs("p_partkey", "p_category", "p_brand1"),
			"date":      da.Attrs("d_datekey", "d_year"),
		}},
	}

	return &Benchmark{
		Name:     "SSB",
		Tables:   []*Table{lineorder, customer, supplier, part, date},
		Workload: Workload{Queries: queries},
	}, nil
}

package main

import (
	"fmt"
	"math/rand"

	"shark/internal/row"
)

// The generated tables follow the TPC-H lineitem/supplier subset the
// repository's own generators use (internal/data), but every value
// comes from the run's seed, and the columns are kept typed so the
// reference answers can be computed without the engine.

var lineitemSchema = row.Schema{
	{Name: "L_ORDERKEY", Type: row.TInt},
	{Name: "L_PARTKEY", Type: row.TInt},
	{Name: "L_SUPPKEY", Type: row.TInt},
	{Name: "L_QUANTITY", Type: row.TInt},
	{Name: "L_EXTENDEDPRICE", Type: row.TFloat},
	{Name: "L_DISCOUNT", Type: row.TFloat},
	{Name: "L_RETURNFLAG", Type: row.TString},
	{Name: "L_SHIPMODE", Type: row.TString},
	{Name: "L_RECEIPTDATE", Type: row.TDate},
}

var supplierSchema = row.Schema{
	{Name: "S_SUPPKEY", Type: row.TInt},
	{Name: "S_NAME", Type: row.TString},
	{Name: "S_ADDRESS", Type: row.TString},
	{Name: "S_NATIONKEY", Type: row.TInt},
}

var (
	shipModes   = []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "FOB", "REG AIR"}
	returnFlags = []string{"A", "N", "R"}
)

// dateDays is the span of L_RECEIPTDATE in days from dateBase: the
// 2.5K-group aggregation column.
const dateDays = 2500

var dateBase = mustDate("1992-01-01")

func mustDate(s string) int64 {
	d, err := row.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// lineitem holds a generated lineitem table column by column.
// L_ORDERKEY is row/4, so the table is clustered on it and a DFS
// block (one cached partition) covers a narrow key range.
type lineitem struct {
	n                     int
	partKey, suppKey, qty []int64
	price, disc           []float64
	flag, mode            []uint8
	date                  []int64
	nSuppliers, nOrders   int64
}

func genLineitem(seed int64, n, nSuppliers int) *lineitem {
	rng := rand.New(rand.NewSource(seed))
	l := &lineitem{
		n:          n,
		partKey:    make([]int64, n),
		suppKey:    make([]int64, n),
		qty:        make([]int64, n),
		price:      make([]float64, n),
		disc:       make([]float64, n),
		flag:       make([]uint8, n),
		mode:       make([]uint8, n),
		date:       make([]int64, n),
		nSuppliers: int64(nSuppliers),
		nOrders:    int64((n + 3) / 4),
	}
	for i := 0; i < n; i++ {
		l.partKey[i] = int64(rng.Intn(n/2 + 1))
		l.suppKey[i] = int64(rng.Intn(nSuppliers))
		l.qty[i] = int64(rng.Intn(50) + 1)
		// Cents, so the text round trip is exact.
		l.price[i] = float64(rng.Intn(10_000_000)) / 100
		l.disc[i] = float64(rng.Intn(11)) / 100
		l.flag[i] = uint8(rng.Intn(len(returnFlags)))
		l.mode[i] = uint8(rng.Intn(len(shipModes)))
		l.date[i] = dateBase + int64(rng.Intn(dateDays))
	}
	return l
}

func (l *lineitem) orderKey(i int) int64 { return int64(i / 4) }

func (l *lineitem) row(i int) row.Row {
	return row.Row{
		l.orderKey(i), l.partKey[i], l.suppKey[i], l.qty[i],
		l.price[i], l.disc[i],
		returnFlags[l.flag[i]], shipModes[l.mode[i]], l.date[i],
	}
}

// supplier holds a generated supplier table.
type supplier struct {
	name, addr []string
	nation     []int64
}

func genSupplier(seed int64, n int) *supplier {
	rng := rand.New(rand.NewSource(seed))
	s := &supplier{name: make([]string, n), addr: make([]string, n), nation: make([]int64, n)}
	for i := 0; i < n; i++ {
		s.name[i] = fmt.Sprintf("Supplier#%09d", i)
		s.addr[i] = fmt.Sprintf("addr-%d-%d", rng.Intn(100000), i)
		s.nation[i] = int64(rng.Intn(25))
	}
	return s
}

func (s *supplier) row(i int) row.Row {
	return row.Row{int64(i), s.name[i], s.addr[i], s.nation[i]}
}

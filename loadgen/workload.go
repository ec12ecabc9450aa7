package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"benchpress/internal/benchmarks/tpcc"
	"benchpress/internal/benchmarks/ycsb"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// workload is one input set of the benchmark: a benchmark at a scale and
// an engine personality, driven closed loop.
type workload struct {
	engine   string
	disk     bool // golock behind a data dir with the default 64-frame buffer pool
	newBench func() core.Benchmark
	// check verifies the data after the run, through the driver surface.
	check func(conn *dbdriver.Conn) error
}

// workloads are documented, with the reason each exists, in README.md.
var workloads = map[string]workload{
	"ycsb-mvcc": {
		engine:   "gomvcc",
		newBench: func() core.Benchmark { return ycsb.New(1) },
	},
	"ycsb-disk": {
		engine:   "golock",
		disk:     true,
		newBench: func() core.Benchmark { return ycsb.New(1) },
	},
	"tpcc-lock": {
		engine:   "golock",
		newBench: func() core.Benchmark { return tpcc.New(1) },
		check:    checkTPCC,
	},
}

// personality returns the workload's engine configuration.
func (w workload) personality(dataDir string) (dbdriver.Personality, error) {
	p, err := dbdriver.Lookup(w.engine)
	if err != nil {
		return p, err
	}
	if w.disk {
		p.DataDir = dataDir
	}
	return p, nil
}

// setup opens a fresh database and runs core.Prepare on it, timing Prepare.
func (w workload) setup(dataDir string, seed int64) (*dbdriver.DB, core.Benchmark, time.Duration, error) {
	if w.disk {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, 0, err
		}
	}
	p, err := w.personality(dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	db, err := dbdriver.OpenWith(p)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("open %s: %w", w.engine, err)
	}
	b := w.newBench()
	t0 := time.Now()
	if err := core.Prepare(b, db, seed); err != nil {
		db.Close()
		return nil, nil, 0, err
	}
	return db, b, time.Since(t0), nil
}

// checkTPCC runs the TPC-C consistency conditions of the repo's invariant
// tests: per district d_next_o_id - 1 = max(o_id) and no orphan new_order
// rows, and every order has order line 1.
func checkTPCC(c *dbdriver.Conn) error {
	rows, err := c.Query("SELECT d_w_id, d_id, d_next_o_id FROM district")
	if err != nil {
		return err
	}
	if len(rows.Rows) == 0 {
		return errors.New("tpcc: no districts")
	}
	var errs []error
	for _, d := range rows.Rows {
		w, did, next := d[0].Int(), d[1].Int(), d[2].Int()
		maxO, err := c.QueryRow("SELECT MAX(o_id) FROM oorder WHERE o_w_id = ? AND o_d_id = ?", w, did)
		if err != nil {
			return err
		}
		if maxO[0].Int() != next-1 {
			errs = append(errs, fmt.Errorf("tpcc: w=%d d=%d: max(o_id)=%d, d_next_o_id=%d", w, did, maxO[0].Int(), next))
		}
		missing, err := c.QueryRow(`SELECT COUNT(*) FROM new_order no
			LEFT JOIN oorder o ON o.o_w_id = no.no_w_id AND o.o_d_id = no.no_d_id AND o.o_id = no.no_o_id
			WHERE no.no_w_id = ? AND no.no_d_id = ? AND o.o_id IS NULL`, w, did)
		if err != nil {
			return err
		}
		if n := missing[0].Int(); n != 0 {
			errs = append(errs, fmt.Errorf("tpcc: w=%d d=%d: %d orphan new_order rows", w, did, n))
		}
	}
	cnt, err := c.QueryRow(`SELECT COUNT(*) FROM oorder o
		LEFT JOIN order_line ol ON ol.ol_w_id = o.o_w_id AND ol.ol_d_id = o.o_d_id
			AND ol.ol_o_id = o.o_id AND ol.ol_number = 1
		WHERE ol.ol_o_id IS NULL`)
	if err != nil {
		return err
	}
	if n := cnt[0].Int(); n != 0 {
		errs = append(errs, fmt.Errorf("tpcc: %d orders without a first order line", n))
	}
	return errors.Join(errs...)
}

// tableDigest returns the row count of usertable and an order-independent
// hash of its rows: the sum of each row's FNV-64a over its formatted values.
func tableDigest(db *dbdriver.DB) (rows int, sum uint64, err error) {
	c := db.Connect()
	defer func() {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res, err := c.Query("SELECT * FROM usertable")
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	for _, r := range res.Rows {
		h.Reset()
		for _, v := range r {
			h.Write([]byte(v.Format()))
			h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return len(res.Rows), sum, nil
}

// reopenCheck closes a disk-resident db, reopens its data dir (full ARIES
// recovery) and verifies that the recovered table holds the same rows. It
// returns the reopen wall time.
func (w workload) reopenCheck(db *dbdriver.DB, dataDir string) (time.Duration, error) {
	rows, sum, err := tableDigest(db)
	db.Close()
	if err != nil {
		return 0, fmt.Errorf("digest before close: %w", err)
	}
	p, err := w.personality(dataDir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	re, err := dbdriver.OpenWith(p)
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("reopen %s: %w", dataDir, err)
	}
	defer re.Close()
	rows2, sum2, err := tableDigest(re)
	if err != nil {
		return 0, fmt.Errorf("digest after reopen: %w", err)
	}
	if rows2 != rows || sum2 != sum {
		return took, fmt.Errorf("recovered data differs: %d rows (hash %x) before close, %d rows (hash %x) after reopen",
			rows, sum, rows2, sum2)
	}
	return took, nil
}

package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"shark"
	_ "shark/driver" // registers the "shark" database/sql driver
	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/row"
	"shark/internal/server"
)

// Cluster shape every workload runs on: 4 simulated workers with 2
// slots each and the default (Spark) profile.
const (
	benchWorkers = 4
	benchSlots   = 2
)

// benchTaskLaunch is the simulated per-task launch cost the benchmark
// sets in every cluster it boots: the Spark profile's. Setting it
// rather than taking the default keeps the reported simulated overhead
// the one the cluster runs with.
var benchTaskLaunch = cluster.SparkProfile().TaskLaunchOverhead

// queryLogSize bounds the server's statement log: more than a traced
// phase of serve_mixed runs.
const queryLogSize = 1 << 15

// env is one booted in-process shark-server with its observability
// sidecar, an embedded shared-catalog loader session on the same
// cluster, and a database/sql handle that reaches the server over
// loopback TCP.
type env struct {
	dir    string
	srv    *server.Server
	loader *shark.Session
	db     *sql.DB
	obsURL string
	// taskLaunch is the cluster's simulated per-task launch cost.
	taskLaunch time.Duration

	ln, obsLn         net.Listener
	served, obsServed chan error
	// textBytes is the size of each text table loadText wrote.
	textBytes map[string]int64
}

// newEnv boots a server whose cluster keeps its DFS and spill files
// under dir. Driver connections use the defaults: plan cache on,
// result cache off.
func newEnv(dir string, cc shark.ClusterConfig) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cc.Workers, cc.SlotsPerWorker, cc.DataDir = benchWorkers, benchSlots, dir
	cc.TaskLaunchOverhead = benchTaskLaunch
	// The query log keeps every statement of a traced phase, so the
	// benchmark can set each client latency against its server time.
	srv, err := server.New(server.Config{Cluster: cc, QueryLogSize: queryLogSize})
	if err != nil {
		return nil, fmt.Errorf("boot server: %w", err)
	}
	e := &env{dir: dir, srv: srv, taskLaunch: cc.TaskLaunchOverhead, textBytes: map[string]int64{}}
	if e.loader, err = srv.Cluster().NewSession(shark.SessionConfig{Name: "loader", SharedCatalog: true}); err != nil {
		e.close()
		return nil, err
	}
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(e.ln) }()
	if e.obsLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	e.obsServed = make(chan error, 1)
	go func() { e.obsServed <- http.Serve(e.obsLn, srv.ObsHandler()) }()
	e.obsURL = "http://" + e.obsLn.Addr().String()
	if e.db, err = sql.Open("shark", e.ln.Addr().String()+"?catalog=shared&session=bench"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close drains the server, waits for its accept loops to return and
// removes the data directory.
func (e *env) close() {
	if e.db != nil {
		e.db.Close()
	}
	if e.loader != nil {
		e.loader.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	if e.served != nil {
		<-e.served
	}
	if e.obsLn != nil {
		e.obsLn.Close()
		<-e.obsServed
	}
	os.RemoveAll(e.dir)
}

// loadText writes n rows into the DFS as a text table and registers
// it as an external table, the input a CTAS caches from.
func (e *env) loadText(name string, schema row.Schema, n int, rowAt func(int) row.Row) error {
	file := "data/bench/" + name
	w, err := e.loader.FS.Create(file, dfs.Text, schema)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := w.Write(rowAt(i)); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	meta, err := e.loader.FS.Stat(file)
	if err != nil {
		return err
	}
	e.textBytes[name] = meta.TotalBytes()
	return e.loader.RegisterExternal(name, file, schema)
}

// cacheTable runs a CTAS over the wire that caches src as dst at the
// given storage level ("true" for the session default).
func (e *env) cacheTable(ctx context.Context, dst, src, level string) error {
	_, err := e.db.ExecContext(ctx, fmt.Sprintf(
		`CREATE TABLE %s TBLPROPERTIES ("shark.cache"=%q) AS SELECT * FROM %s`, dst, level, src))
	return err
}

// cachedBytes is the stored size of a cached table across memory and
// disk tiers.
func (e *env) cachedBytes(name string) (int64, error) {
	t, err := e.loader.Cat.Get(name)
	if err != nil {
		return 0, err
	}
	if t.Mem == nil {
		return 0, errors.New(name + " is not cached")
	}
	return t.Mem.TotalBytes(), nil
}

// pinConn takes one connection out of db's pool for a closed-loop
// client and returns the name of its server session.
func pinConn(ctx context.Context, db *sql.DB) (*sql.Conn, string, error) {
	conn, err := db.Conn(ctx)
	if err != nil {
		return nil, "", err
	}
	var sess string
	err = conn.Raw(func(dc any) error {
		s, ok := dc.(interface{ Session() string })
		if !ok {
			return fmt.Errorf("driver connection %T has no session name", dc)
		}
		sess = s.Session()
		return nil
	})
	if err != nil {
		conn.Close()
		return nil, "", err
	}
	return conn, sess, nil
}

// blocksPerWorker counts the blocks in each worker's store: where the
// cached partitions landed.
func (e *env) blocksPerWorker() []int {
	cl := e.srv.Cluster()
	out := make([]int, cl.NumWorkers())
	for i := range out {
		out[i] = cl.Worker(i).Store().Len()
	}
	return out
}

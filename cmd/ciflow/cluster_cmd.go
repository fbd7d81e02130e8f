package main

// The backend half of the sharded serving fabric as a standalone verb:
// `ciflow shard` wraps one serve.Service behind the internal/cluster
// wire protocol. The replay driver (`ciflow serve -shards S`,
// replay.go) spawns shard subprocesses through spawnShard and puts a
// cluster.Router in front.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/engine"
	"ciflow/internal/obs"
)

// tenantNames is the canonical tenant naming every cluster process
// agrees on: t0..t{n-1}. Key material follows from the name alone
// (serve.TenantSeed), so shards and verifiers never exchange keys.
func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

// shardConfig is one shard backend's flags. The replay driver passes
// its own fabricFlags, resolved — a shard does no schedule-dependent
// tuning of its own (and ignores -replicas, the router's).
type shardConfig struct {
	fabricFlags
	addr string
}

// shardCmd runs one shard backend: serve.Service + wire listener. It
// prints "listening <addr>" once the socket is bound (the line
// spawnShard parses) and exits when its stdin reaches EOF (the parent
// went away) or a Shutdown frame arrives. Request levels are taken
// literally (replayServiceConfig), as in the driver's own process: a
// frame's input polynomial fixes its level, so routing a level-0 frame
// to the top level could only ever fail it.
func shardCmd(cfg shardConfig) error {
	if cfg.tenants < 1 {
		return fmt.Errorf("shard: -tenants %d, want >= 1", cfg.tenants)
	}
	if cfg.logN < 4 || cfg.logN > 16 {
		return fmt.Errorf("shard: logn %d out of range [4,16]", cfg.logN)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.profile {
		// The recorder snapshot rides every stats frame (serve.Stats
		// .Profile), so the router can merge shard profiles exactly.
		obs.Enable()
		defer obs.Disable()
	}
	cctx, err := ckks.NewContext(1<<cfg.logN, cfg.towers, 40, 3, 41, cfg.dnum)
	if err != nil {
		return err
	}
	e := engine.New(cfg.workers)
	defer e.Close()
	sh, err := cluster.NewShard(cctx, tenantNames(cfg.tenants),
		replayServiceConfig(e, cfg.keyBudget))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	go func() {
		// The parent holds our stdin pipe open for our whole life;
		// EOF means it exited (cleanly or not) and we must not leak.
		io.Copy(io.Discard, os.Stdin)
		sh.Close()
	}()
	go func() {
		<-sh.Done() // Shutdown frame
		sh.Close()
	}()
	return sh.Serve(ln)
}

func printShardTable(sts []cluster.ShardStatus) {
	fmt.Printf("%-6s %-22s %-8s %10s %10s %8s\n",
		"shard", "addr", "state", "completed", "served", "modups")
	for _, st := range sts {
		fmt.Printf("%-6d %-22s %-8s %10d %10d %8d\n",
			st.Shard, st.Name, st.State, st.Completed, st.Stats.Served, st.Stats.ModUps)
	}
}

// shardProc is one spawned `ciflow shard` subprocess.
type shardProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// spawnShard starts one shard subprocess and waits for its
// "listening" line. The returned proc's stdin must stay open for the
// shard's lifetime — closing it is the kill switch.
func spawnShard(exe string, cfg shardConfig) (*shardProc, error) {
	args := []string{"shard",
		"-addr", cfg.addr,
		"-tenants", strconv.Itoa(cfg.tenants),
		"-logn", strconv.Itoa(cfg.logN),
		"-towers", strconv.Itoa(cfg.towers),
		"-dnum", strconv.Itoa(cfg.dnum),
		"-workers", strconv.Itoa(cfg.workers),
		"-keybudget", strconv.FormatInt(cfg.keyBudget, 10),
	}
	if cfg.profile {
		args = append(args, "-profile")
	}
	cmd := exec.Command(exe, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &shardProc{cmd: cmd, stdin: stdin}

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // past the handshake, just drain
			}
		}
		close(lines)
	}()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				p.stop()
				return nil, fmt.Errorf("serve: shard exited before listening")
			}
			if addr, found := strings.CutPrefix(line, "listening "); found {
				p.addr = addr
				return p, nil
			}
		case <-deadline:
			p.stop()
			return nil, fmt.Errorf("serve: shard did not report a listening address")
		}
	}
}

// stop closes the shard's stdin (its signal to exit) and reaps it,
// escalating to a kill if it lingers.
func (p *shardProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

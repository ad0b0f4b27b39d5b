package exp

import (
	"net"
	"net/http/httptest"
	"testing"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/rtether/client"
)

// daemonOpen hosts each scenario's network behind its own
// internal/server on loopback and returns one client speaking proto
// ("json" or "binary") to it; the daemon goes down when t ends.
func daemonOpen(t *testing.T, proto string) Open {
	return func(s *scenario.Scenario) (scenario.Target, error) {
		rtnet, err := s.BuildNetwork(0)
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{Network: rtnet})
		ts := httptest.NewServer(srv.Handler())
		var opts []client.Option
		if proto == "binary" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				ts.Close()
				srv.Close()
				return nil, err
			}
			go func() { _ = srv.ServeBinary(ln) }()
			opts = append(opts, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
		}
		cl := client.New(ts.URL, opts...)
		t.Cleanup(func() { cl.CloseIdleConnections(); ts.Close(); srv.Close(); _ = rtnet.Close() })
		return cl, nil
	}
}

// TestAcceptanceTablesOverDaemon plays E1, E6 and E8 through a daemon
// on loopback, one caller per daemon, over each transport: every cell's
// stream goes through the same driver as in process, so the tables
// match the in-process ones byte for byte.
func TestAcceptanceTablesOverDaemon(t *testing.T) {
	tables := []struct {
		id  string
		run func(Open) (*stats.Table, error)
	}{
		{"fig18.5", Fig185On},
		{"multiswitch", MultiSwitchOn},
		{"dsweep", DeadlineSweepOn},
	}
	for _, tb := range tables {
		want := must(tb.run(InProcess)).CSV()
		for _, proto := range []string{"json", "binary"} {
			t.Run(tb.id+"/"+proto, func(t *testing.T) {
				got, err := tb.run(daemonOpen(t, proto))
				if err != nil {
					t.Fatal(err)
				}
				if got.CSV() != want {
					t.Errorf("over the daemon:\n%s\nin process:\n%s", got.CSV(), want)
				}
			})
		}
	}
}

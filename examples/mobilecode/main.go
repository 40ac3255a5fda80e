// Mobile code: the paper's transmission scenario. A server compresses
// a program and ships it over a real network connection; the client
// receives it, prepares it (decompress / JIT / load), and runs it —
// demonstrating that "the delivery time from the network or disk can
// mask some or even all of the recompilation time".
//
// The demo ships the same program three ways over a loopback TCP
// connection throttled to 28.8 kbaud, the paper's motivating
// bottleneck:
//
//  0. the conventional native executable (no compression)
//  1. the wire format (best density; decompress + compile on arrival)
//  2. the BRISC object (gzip-class density, JIT-compiled on arrival)
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"repro/internal/brisc"
	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/workload"
)

// linkBytesPerSec simulates a 28.8 kbaud modem (~3.6 KB/s). The sleep
// is scaled down 10x so the demo finishes quickly; reported transfer
// times are scaled back up.
const (
	linkBytesPerSec = 3600
	timeScale       = 10
)

type format struct {
	name    string
	payload []byte
}

func main() {
	src := workload.Generate(workload.Wep)
	prog, err := core.CompileC("app", src)
	if err != nil {
		log.Fatal(err)
	}
	exe, err := prog.Native()
	if err != nil {
		log.Fatal(err)
	}
	wireBytes, err := prog.Wire()
	if err != nil {
		log.Fatal(err)
	}
	obj, err := prog.BRISC(brisc.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("shipping %q (%d instructions) over a %d B/s link:\n\n",
		"app", len(exe.Code), linkBytesPerSec)
	formats := []format{
		{"native", native.EncodeProgram(exe)},
		{"wire", wireBytes},
		{"brisc", obj.Bytes()},
	}
	for i, f := range formats {
		if err := ship(byte(i), f); err != nil {
			log.Fatalf("%s: %v", f.name, err)
		}
	}
	fmt.Println("\nwire is smallest on the wire; BRISC needs no decompression step")
	fmt.Println("and still beats shipping native code — the paper's conclusion.")
}

func ship(kind byte, f format) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() { errc <- serve(ln, kind, f.payload) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	start := time.Now()
	gotKind, data, err := receive(conn)
	if err != nil {
		return err
	}
	transfer := time.Since(start) * timeScale

	prepStart := time.Now()
	run, err := prepare(gotKind, data)
	if err != nil {
		return err
	}
	prep := time.Since(prepStart)

	runStart := time.Now()
	if err := run(); err != nil {
		return err
	}
	runTime := time.Since(runStart)

	fmt.Printf("%-7s %7d bytes  transfer %7.2fs  prepare %10v  run %10v\n",
		f.name, len(data), transfer.Seconds(),
		prep.Round(time.Microsecond), runTime.Round(time.Millisecond))
	return <-errc
}

func serve(ln net.Listener, kind byte, payload []byte) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	const chunk = 512
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := conn.Write(payload[off:end]); err != nil {
			return err
		}
		time.Sleep(time.Duration(float64(end-off) / linkBytesPerSec / timeScale * float64(time.Second)))
	}
	return nil
}

func receive(conn net.Conn) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	data := make([]byte, n)
	if _, err := io.ReadFull(conn, data); err != nil {
		return 0, nil, err
	}
	return hdr[0], data, nil
}

// prepare turns received bytes into a runnable closure, per format.
func prepare(kind byte, data []byte) (func() error, error) {
	switch kind {
	case 0: // native executable: just load it
		prog, err := native.DecodeProgram(data)
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := core.RunNative(prog, io.Discard, core.Limits{})
			return err
		}, nil
	case 1: // wire: decompress to IR, compile, run
		prog, err := core.FromWire(data)
		if err != nil {
			return nil, err
		}
		exe, err := prog.Native()
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := core.RunNative(exe, io.Discard, core.Limits{})
			return err
		}, nil
	case 2: // BRISC: parse and JIT
		obj, err := brisc.Parse(data)
		if err != nil {
			return nil, err
		}
		prog, err := brisc.JIT(obj)
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := core.RunNative(prog, io.Discard, core.Limits{})
			return err
		}, nil
	}
	return nil, fmt.Errorf("unknown payload kind %d", kind)
}

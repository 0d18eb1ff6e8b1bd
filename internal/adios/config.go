// Package adios reimplements the slice of the ADIOS I/O library that
// FlexIO builds on (Section II.A/B of the paper): a metadata-rich
// read/write API over named IO groups, with the I/O *method* selected
// through an external XML configuration file — so applications switch
// between file I/O and FlexIO's online stream transports, or tune
// transport parameters (caching, async, transport), without touching
// source code. "A one-line update to the configuration file is
// sufficient to switch between file I/O and online data movement."
//
// Two engines are provided:
//
//   - "stream": memory-to-memory movement through the FlexIO runtime
//     (internal/core) — the paper's new stream mode;
//   - "file": a BP-like self-describing container on the file system —
//     the backwards-compatible file mode that also enables offline
//     analytics placement.
package adios

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"flexio/internal/core"
	"flexio/internal/evpath"
)

// Config mirrors the adios-config XML document.
type Config struct {
	IOs map[string]*IOConfig
}

// IOConfig configures one IO group (one logical output stream).
type IOConfig struct {
	Name   string
	Engine string            // "stream" or "file"
	Params map[string]string // engine hints (caching, async, queue_depth, transport)
}

type xmlConfig struct {
	XMLName xml.Name `xml:"adios-config"`
	IOs     []struct {
		Name   string `xml:"name,attr"`
		Engine struct {
			Type   string `xml:"type,attr"`
			Params []struct {
				Name  string `xml:"name,attr"`
				Value string `xml:"value,attr"`
			} `xml:"parameter"`
		} `xml:"engine"`
	} `xml:"io"`
}

// ParseConfig reads an adios-config XML document.
func ParseConfig(r io.Reader) (*Config, error) {
	var doc xmlConfig
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("adios: parsing config: %w", err)
	}
	cfg := &Config{IOs: make(map[string]*IOConfig)}
	for _, io := range doc.IOs {
		if io.Name == "" {
			return nil, fmt.Errorf("adios: io element without name")
		}
		if _, dup := cfg.IOs[io.Name]; dup {
			return nil, fmt.Errorf("adios: duplicate io %q", io.Name)
		}
		engine := io.Engine.Type
		if engine == "" {
			engine = "stream"
		}
		if engine != "stream" && engine != "file" {
			return nil, fmt.Errorf("adios: io %q: unknown engine %q", io.Name, engine)
		}
		ioc := &IOConfig{Name: io.Name, Engine: engine, Params: make(map[string]string)}
		for _, p := range io.Engine.Params {
			ioc.Params[strings.ToLower(p.Name)] = p.Value
		}
		cfg.IOs[io.Name] = ioc
	}
	return cfg, nil
}

// LoadConfig parses an XML config file from disk.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// coreOptions translates engine hints into FlexIO runtime options.
func (c *IOConfig) coreOptions() (core.Options, error) {
	var opts core.Options
	for k, v := range c.Params {
		switch k {
		case "caching":
			switch strings.ToUpper(v) {
			case "NO_CACHING":
				opts.Caching = core.NoCaching
			case "CACHING_LOCAL":
				opts.Caching = core.CachingLocal
			case "CACHING_ALL":
				opts.Caching = core.CachingAll
			default:
				return opts, fmt.Errorf("adios: io %q: bad caching %q", c.Name, v)
			}
		case "async":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return opts, fmt.Errorf("adios: io %q: bad async %q", c.Name, v)
			}
			opts.Async = b
		case "queue_depth":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return opts, fmt.Errorf("adios: io %q: bad queue_depth %q", c.Name, v)
			}
			opts.AsyncQueueDepth = n
		case "transport":
			// "shm", "tcp", "chan", or "auto" — "auto" leaves the
			// decision to the placement function supplied at open time.
			// "tcp" needs a Net that serves the wire.
			switch strings.ToLower(v) {
			case "shm":
				opts.Transport = func(w, r int) (evpath.TransportKind, int, int) {
					return evpath.ShmTransport, 0, 0
				}
			case "tcp":
				opts.Transport = func(w, r int) (evpath.TransportKind, int, int) {
					return evpath.TCPTransport, 0, 0
				}
			case "chan", "auto":
				// defaults
			default:
				return opts, fmt.Errorf("adios: io %q: bad transport %q", c.Name, v)
			}
		default:
			return opts, fmt.Errorf("adios: io %q: unknown parameter %q", c.Name, k)
		}
	}
	return opts, nil
}

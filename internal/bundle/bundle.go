// Package bundle reads and writes app bundles and corpus trees on
// disk — the interchange format between cmd/ppgen (which writes a
// corpus) and cmd/ppchecker (which analyzes one app):
//
//	<corpus>/
//	  libs/<LibName>.html
//	  apps/<pkg>/policy.html
//	  apps/<pkg>/description.txt
//	  apps/<pkg>/app.apk
//	  apps/<pkg>/libs.txt
//	  truth.json
//
// Every bundle and library-policy file is read with readFile, which
// keeps regular files off the runtime's network poller. The library
// policies under libs/ are shared by the whole corpus, so a LibReader
// reads each of them at most once for all the apps that name it.
package bundle

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"unicode/utf8"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/memo"
	"ppchecker/internal/synth"
)

// File names inside an app bundle.
const (
	FilePolicy      = "policy.html"
	FileDescription = "description.txt"
	FileAPK         = "app.apk"
	FileLibs        = "libs.txt"
	FileTruth       = "truth.json"
	DirApps         = "apps"
	DirLibs         = "libs"
)

// TruthEntry pairs a package name with its ground-truth labels in
// truth.json.
type TruthEntry struct {
	Pkg   string
	Truth synth.GroundTruth
}

// FileError is a typed per-file bundle error: it names the bundle
// directory and file, and distinguishes a missing file from a corrupt
// one.
type FileError struct {
	Dir  string
	File string
	Err  error
	// Missing is true when the file does not exist (vs exists but is
	// unreadable or corrupt).
	Missing bool
}

// Error implements the error interface.
func (e *FileError) Error() string {
	kind := "corrupt"
	if e.Missing {
		kind = "missing"
	}
	return fmt.Sprintf("bundle: %s file %s in %s: %v", kind, e.File, e.Dir, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *FileError) Unwrap() error { return e.Err }

// fileError builds a FileError, classifying os.IsNotExist as Missing.
func fileError(dir, file string, err error) *FileError {
	return &FileError{Dir: dir, File: file, Err: err, Missing: os.IsNotExist(err)}
}

// AddDegraded records each file error on rep as a degraded stage: a
// corrupt APK failed apk-decode, and any other missing or unreadable
// file failed bundle-read.
func AddDegraded(rep *core.Report, ferrs []*FileError) {
	for _, fe := range ferrs {
		stage := core.StageRead
		if fe.File == FileAPK && !fe.Missing {
			stage = core.StageDecode
		}
		rep.AddDegraded(&core.StageError{Stage: stage, App: rep.App, Err: fe})
	}
}

// WriteApp writes one app bundle directory.
func WriteApp(dir string, app *core.App) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	apkData, err := apk.Encode(app.APK)
	if err != nil {
		return fmt.Errorf("bundle: encode %s: %w", app.Name, err)
	}
	files := map[string][]byte{
		FilePolicy:      []byte(app.PolicyHTML),
		FileDescription: []byte(app.Description),
		FileAPK:         apkData,
		FileLibs:        []byte(libList(app.LibPolicies)),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReadApp loads one app bundle. The required files are policy.html and
// app.apk: a missing or corrupt one fails with a *FileError naming the
// file. description.txt and libs.txt are optional — when absent the app
// proceeds with an empty description / no libraries. libsDir may be
// empty, in which case no library policies are attached; missing
// library policies are skipped, mirroring the paper's handling of libs
// without English policies.
func ReadApp(dir, libsDir string) (*core.App, error) {
	app, ferrs := ReadAppLenient(dir, libsDir)
	for _, fe := range ferrs {
		if fe.File == FilePolicy || fe.File == FileAPK {
			return nil, fe
		}
	}
	return app, nil
}

// ReadAppLenient loads whatever parts of an app bundle it can, never
// failing outright: each unreadable or corrupt file is reported as a
// *FileError while the corresponding App field stays zero. Optional
// files (description.txt, libs.txt) produce no error when merely
// absent. It is ReadRaw followed by Raw.Decode with a LibReader of its
// own, so a caller reading many apps of one corpus should keep one
// LibReader and decode through it instead.
func ReadAppLenient(dir, libsDir string) (*core.App, []*FileError) {
	return ReadRaw(dir).Decode(NewLibReader(libsDir))
}

// RawFile is one bundle file as read from disk: its bytes, or the
// error the read failed with and nil bytes.
type RawFile struct {
	Data []byte
	Err  error
}

// Raw is one read of an app bundle directory's four files. Decoding it
// does not reopen them, so a caller that hashes the bytes analyzes
// exactly what it hashed, however often it decodes.
type Raw struct {
	Dir                            string
	Policy, Description, APK, Libs RawFile
}

// ReadRaw reads the four files of an app bundle directory once,
// recording each read's error instead of stopping at the first.
func ReadRaw(dir string) *Raw {
	read := func(name string) RawFile {
		data, err := readFile(filepath.Join(dir, name))
		if err != nil {
			return RawFile{Err: err}
		}
		return RawFile{Data: data}
	}
	return &Raw{
		Dir:         dir,
		Policy:      read(FilePolicy),
		Description: read(FileDescription),
		APK:         read(FileAPK),
		Libs:        read(FileLibs),
	}
}

// Decode builds the app from the raw bytes with ReadAppLenient's
// rules. Each call returns a fresh App. It opens no bundle file; the
// library policies libs.txt names come from libs, which reads each
// shared corpus file once for every app that names it. A name libs
// cannot read is skipped, as the paper skips libraries without an
// English policy, and a nil libs attaches none.
func (r *Raw) Decode(libs *LibReader) (*core.App, []*FileError) {
	var ferrs []*FileError
	app := &core.App{
		Name:        filepath.Base(r.Dir),
		LibPolicies: map[string]string{},
	}

	if r.Policy.Err != nil {
		ferrs = append(ferrs, fileError(r.Dir, FilePolicy, r.Policy.Err))
	} else {
		// Invalid UTF-8 still reaches the app so CheckSafe can report
		// the extraction failure with full context, but the bundle
		// layer flags the corruption too.
		app.PolicyHTML = string(r.Policy.Data)
		if !utf8.Valid(r.Policy.Data) {
			ferrs = append(ferrs, &FileError{Dir: r.Dir, File: FilePolicy,
				Err: fmt.Errorf("not valid UTF-8")})
		}
	}

	if r.Description.Err != nil {
		if !os.IsNotExist(r.Description.Err) {
			ferrs = append(ferrs, fileError(r.Dir, FileDescription, r.Description.Err))
		}
	} else {
		app.Description = string(r.Description.Data)
	}

	if r.APK.Err != nil {
		ferrs = append(ferrs, fileError(r.Dir, FileAPK, r.APK.Err))
	} else if a, err := apk.Decode(r.APK.Data); err != nil {
		ferrs = append(ferrs, &FileError{Dir: r.Dir, File: FileAPK, Err: err})
	} else {
		app.APK = a
		app.Name = a.Manifest.Package
	}

	if r.Libs.Err != nil && !os.IsNotExist(r.Libs.Err) {
		ferrs = append(ferrs, fileError(r.Dir, FileLibs, r.Libs.Err))
	}
	if r.Libs.Err != nil || libs == nil {
		return app, ferrs
	}
	for _, name := range strings.Split(strings.TrimSpace(string(r.Libs.Data)), "\n") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if text, ok := libs.Read(name); ok {
			app.LibPolicies[name] = text
		}
	}
	return app, ferrs
}

// Library-policy memo bounds: a corpus names a few dozen distinct
// libraries (81 in ppgen's default corpus), and a name longer than
// a file name may be could not be opened anyway.
const (
	libMemoCapacity = 1024
	libMemoKeyLen   = 255
)

// LibReader reads the library policies of one corpus's shared libs/
// directory, each file at most once however many apps name it. Only a
// successful read is kept: a missing or unreadable file is tried again
// by the next app that names it, and skipped meanwhile. The texts are
// shared corpus files, not bundle files, so they stay outside an
// item's content hash; a file edited after its first read is not seen
// again by the same reader. Safe for concurrent use.
type LibReader struct {
	dir   string
	texts *memo.Map[string]
}

// NewLibReader builds a reader over a libs/ directory; an empty dir
// gives the nil reader, which attaches no library.
func NewLibReader(dir string) *LibReader {
	if dir == "" {
		return nil
	}
	return &LibReader{dir: dir, texts: memo.New[string](libMemoCapacity, libMemoKeyLen, 0)}
}

// Read returns the policy text of the named library, reading
// <dir>/<name>.html on its first successful use. A name that is not a
// single path element (one holding a separator, "." or "..") would
// reach outside the directory, and reads as missing.
func (l *LibReader) Read(name string) (string, bool) {
	if name == "." || name == ".." || filepath.Base(name) != name {
		return "", false
	}
	if text, ok := l.texts.Get(name); ok {
		return text, true
	}
	data, err := readFile(filepath.Join(l.dir, name+".html"))
	if err != nil {
		return "", false
	}
	text, _, _ := l.texts.Do(name, func(string) string { return string(data) })
	return text, true
}

// readFile is os.ReadFile for the regular files of a corpus. os.Open
// makes every descriptor non-blocking and offers it to the runtime's
// network poller, which refuses a regular file, so os.Open makes it
// blocking again: four fcntl calls and a failed epoll_ctl per file.
// os.NewFile over a blocking descriptor makes one fcntl call and
// leaves the descriptor off the poller. Errors are the
// *os.PathError values os.ReadFile returns, so a missing file still
// satisfies os.IsNotExist and reading a directory still fails on the
// read.
func readFile(path string) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	// One byte past the size, so the read that sees EOF needs no
	// growth; at least 512 for files whose size stat misreports.
	size := 0
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) == nil && int64(int(st.Size)) == st.Size {
		size = int(st.Size)
	}
	f := os.NewFile(uintptr(fd), path)
	defer f.Close()
	size++
	if size < 512 {
		size = 512
	}
	data := make([]byte, 0, size)
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return data, err
		}
		if len(data) >= cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// WriteDataset writes a whole corpus tree.
func WriteDataset(ds *synth.Dataset, out string) error {
	libDir := filepath.Join(out, DirLibs)
	if err := os.MkdirAll(libDir, 0o755); err != nil {
		return err
	}
	for name, policy := range ds.LibPolicies {
		if err := os.WriteFile(filepath.Join(libDir, name+".html"), []byte(policy), 0o644); err != nil {
			return err
		}
	}
	truths := make([]TruthEntry, 0, len(ds.Apps))
	for _, ga := range ds.Apps {
		if err := WriteApp(filepath.Join(out, DirApps, ga.App.Name), ga.App); err != nil {
			return err
		}
		truths = append(truths, TruthEntry{Pkg: ga.App.Name, Truth: ga.Truth})
	}
	truthData, err := json.MarshalIndent(truths, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, FileTruth), truthData, 0o644)
}

// ReadTruth loads a corpus's ground-truth labels.
func ReadTruth(corpusDir string) ([]TruthEntry, error) {
	data, err := os.ReadFile(filepath.Join(corpusDir, FileTruth))
	if err != nil {
		return nil, err
	}
	var entries []TruthEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("bundle: truth.json: %w", err)
	}
	return entries, nil
}

// ListApps returns the app bundle directories of a corpus in sorted
// order. Directories that contain neither a policy nor an APK are not
// app bundles (editor droppings, VCS metadata) and are skipped rather
// than failing the listing.
func ListApps(corpusDir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(corpusDir, DirApps))
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(corpusDir, DirApps, e.Name())
		if !isBundleDir(dir) {
			continue
		}
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// isBundleDir reports whether a directory looks like an app bundle:
// it holds at least one of the required files.
func isBundleDir(dir string) bool {
	for _, name := range []string{FilePolicy, FileAPK} {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil && !st.IsDir() {
			return true
		}
	}
	return false
}

func libList(libPolicies map[string]string) string {
	names := make([]string, 0, len(libPolicies))
	for name := range libPolicies {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "\n")
}

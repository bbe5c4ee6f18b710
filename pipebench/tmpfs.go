package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// tmpfsMagic is the statfs f_type of a tmpfs mount.
const tmpfsMagic = 0x01021994

// nsEnv marks the re-executed benchmark running inside its private mount
// namespace.
const nsEnv = "PIPEBENCH_MOUNT_NS"

// tmpfsDir returns dir, created and backed by tmpfs, so every disk-backed
// store the benchmark runs measures the store's CPU and syscall cost, not
// the device's fsync latency (which this benchmark leaves unmeasured).
// When dir is not on tmpfs already, the benchmark re-executes itself in a
// private mount namespace (inside a user namespace when unprivileged)
// with a tmpfs mounted on dir; the mount vanishes with the process and is
// invisible to everything else. If namespaces are unavailable the run
// continues on the plain directory with a warning. tmpfsDir returns only
// in the process that should run the benchmark.
func tmpfsDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if os.Getenv(nsEnv) != "" {
		if err := syscall.Mount("none", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err != nil {
			return "", fmt.Errorf("making mounts private: %w", err)
		}
		if err := syscall.Mount("tmpfs", dir, "tmpfs", 0, "size=1g,mode=0755"); err != nil {
			return "", fmt.Errorf("mounting tmpfs on %s: %w", dir, err)
		}
		return dir, nil
	}
	if onTmpfs(dir) {
		return dir, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, os.Args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = nil, os.Stdout, os.Stderr
	cmd.Env = append(os.Environ(), nsEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS,
		UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
		GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}},
		Pdeathsig:   syscall.SIGKILL,
	}
	if err := cmd.Start(); err != nil {
		logf("warning: no private mount namespace (%v); disk-backed stores run on %s, not tmpfs", err, dir)
		return dir, nil
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		os.Exit(exit.ExitCode())
	}
	if err != nil {
		return "", err
	}
	os.Exit(0)
	return "", nil
}

func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

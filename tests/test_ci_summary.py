import ci_summary


def test_summary_lines_at_small_size():
    # the labels CI's job summary shows and the tape node counts; the times
    # and the fit's figures vary and are not checked
    lines = list(ci_summary.summary(sim_time=120, calls=3, fit_time=120,
                                    fit_steps=20, pde_time=24, pde_nx=8,
                                    step_time=12, step_nx=8))
    labels = ["staged Lorenz loss tape nodes: ",
              "staged Lorenz closed-form gradient, largest relative "
              "difference to the tape: ",
              "staged Lorenz loss and gradient, median ms per call of 3: ",
              "diffusion_source loss tape nodes: ",
              "diffusion_source closed-form gradient, first window, largest "
              "relative difference to the tape: ",
              "diffusion_source loss and gradient, 24x8x8, first window, "
              "median ms per call of 3: ",
              "diffusion_source conv stack forward + backward, 24x8x8, "
              "first window of 20 frames, median ms per call of 3: float32 ",
              "diffusion_source chunk compute_loss + backward, 24x8x8, "
              "first window of 20 frames, tracemalloc peak MB: ",
              "diffusion_source eval reconstruct, encoder without "
              "gradients, 24x8x8, tracemalloc peak MB: ",
              "diffusion_source training load and Problem, 24x8x8, "
              "tracemalloc MB: peak ",
              "diffusion_source joint step, 12x8x8, windows per step: 1, "
              "median s per step of 3: ",
              "Lorenz simulate, 120 samples: median of 3 ",
              "diffusion_source simulate, 24x8x8: median of 3 ",
              "staged Lorenz fit, 120 samples, 20 steps, wall time without "
              "distill: ",
              "distill: loss ",
              "distilled / embedding hidden error: "]
    assert len(lines) == len(labels)
    for line, label in zip(lines, labels):
        assert line.startswith(label), (line, label)
    assert lines[0].endswith(": 83") and lines[3].endswith(": 89")
    # float32 rounds, within the bound the encoder tests hold it to
    assert 0 < float(lines[6].rsplit(": ", 1)[1]) <= 1e-4

import pytest

from molmatch.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)


class TestDefaults:
    def test_training_defaults(self):
        cfg = RunConfig()
        assert cfg.train.meta_lr == 0.001
        assert cfg.train.alpha == 0.05
        assert cfg.train.inner_steps == 5
        assert cfg.train.batch_tasks == 21
        assert cfg.train.max_epochs == 200
        assert cfg.train.optimizer == "adam"
        assert cfg.train.support_split_fraction == 0.5
        assert cfg.train.workers == 1

    def test_model_defaults(self):
        cfg = RunConfig()
        assert cfg.encoder.layers == 5
        assert cfg.encoder.hidden == 300
        assert cfg.encoder.dropout == 0.0
        assert cfg.matcher.dropout == 0.1
        assert cfg.matcher.share_qk is True
        assert cfg.matcher.fusion_bias is True

    def test_protocol_defaults(self):
        cfg = RunConfig()
        assert cfg.protocol.sampling == "balanced"
        assert cfg.protocol.support_size == 20
        assert cfg.protocol.query_size == 256
        assert cfg.protocol.eval_repeats == 10

    def test_defaults_validate(self):
        assert RunConfig().validate() is not None


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_overrides_apply(self, tmp_path):
        cfg = load_config(
            self.write(
                tmp_path,
                "[train]\nalpha = 0.1\ninner_steps = 3\nearly_stop = yes\n"
                "[encoder]\nhidden = 64\n"
                "[protocol]\nsampling = unbalanced\nsupport_size = 16\n",
            )
        )
        assert cfg.train.alpha == 0.1
        assert cfg.train.inner_steps == 3
        assert cfg.train.early_stop is True
        assert cfg.encoder.hidden == 64
        assert cfg.protocol.sampling == "unbalanced"
        assert cfg.protocol.support_size == 16
        assert cfg.train.meta_lr == 0.001  # untouched default

    def test_boolean_spellings(self, tmp_path):
        cfg = load_config(
            self.write(tmp_path, "[matcher]\nshare_qk = off\nfusion_bias = 1\n")
        )
        assert cfg.matcher.share_qk is False
        assert cfg.matcher.fusion_bias is True

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[decoder\]"):
            load_config(self.write(tmp_path, "[decoder]\nlayers = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'alpha_beta'"):
            load_config(self.write(tmp_path, "[train]\nalpha_beta = 0.1\n"))

    @pytest.mark.parametrize(
        "section, line",
        [("taskrel", "eta = 0.1"), ("taskrel", "normalize = true"), ("matcher", "heads = 1")],
    )
    def test_deleted_taskrel_keys_rejected(self, tmp_path, section, line):
        with pytest.raises(ConfigError, match=f"unknown key '{line.split()[0]}'"):
            load_config(self.write(tmp_path, f"[{section}]\n{line}\n"))

    def test_bad_bool_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[train\] early_stop"):
            load_config(self.write(tmp_path, "[train]\nearly_stop = maybe\n"))

    def test_bad_number_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[encoder\] hidden"):
            load_config(self.write(tmp_path, "[encoder]\nhidden = lots\n"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "[encoder]\nhidden = 64\n"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(bom) == load_config(self.write(tmp_path, text))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_out_of_range_values_rejected(self, tmp_path):
        cases = [
            ("[train]\nalpha = -1\n", "alpha"),
            ("[train]\nsupport_split_fraction = 1.0\n", "support_split_fraction"),
            ("[matcher]\ndropout = 1.0\n", "dropout"),
            ("[protocol]\nsampling = stratified\n", "sampling"),
            ("[train]\noptimizer = sgd\n", "optimizer"),
            ("[taskrel]\nmetric = manhattan\n", "metric"),
            ("[protocol]\nsupport_size = 7\n", "even for balanced sampling"),
            ("[train]\nalpha = inf\n", "alpha must be finite"),
            ("[train]\nmeta_lr = inf\n", "meta_lr must be finite"),
            ("[train]\nweight_decay = inf\n", "weight_decay must be finite"),
        ]
        for text, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                load_config(self.write(tmp_path, text))


class TestDictRoundTrip:
    def test_round_trip_preserves_values(self):
        cfg = RunConfig()
        cfg.train.alpha = 0.2
        cfg.encoder.layers = 3
        cfg.matcher.share_qk = False
        cfg.taskrel.metric = "euclidean"
        back = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(back) == config_to_dict(cfg)

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"encoder": {"hidden": 12}})
        assert cfg.encoder.hidden == 12
        assert cfg.encoder.layers == 5

    def test_from_dict_validates(self):
        with pytest.raises(ConfigError, match="batch_tasks"):
            config_from_dict({"train": {"batch_tasks": 0}})
